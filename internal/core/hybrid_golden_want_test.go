// Code generated by go test ./internal/core -run TestHybridGoldenEquivalence -args -print-hybrid-golden; DO NOT EDIT.

package core

// hybridGoldenWant holds one digest per hybrid golden cell, in cell order.
var hybridGoldenWant = []string{
	"d21336efe4a9876d", // 0 MPI+OpenMP STATIC/static 2n×4w seed=659757
	"ca8024f934db2ea8", // 1 MPI+OpenMP(nowait) SS/static 2n×16w seed=276196
	"2a9345b9ec6e8bc2", // 2 MPI+OpenMP FSC/static,7 1n×4w seed=703274
	"5b42047c077781c1", // 3 MPI+OpenMP(nowait) GSS/static,7 1n×8w seed=784114
	"1f41cb603104593c", // 4 MPI+OpenMP TSS/dynamic 4n×4w seed=190170
	"53ce43cb233b5386", // 5 MPI+OpenMP(nowait) FAC/dynamic 4n×16w seed=191361
	"a6f2dd290015dcdf", // 6 MPI+OpenMP FAC2/guided 4n×2w seed=46808
	"cc2b7a727bc874ad", // 7 MPI+OpenMP(nowait) WF/guided 3n×1w seed=320144
	"d4a54ab64ec9093f", // 8 MPI+OpenMP TFSS/tss 3n×8w seed=553400
	"f31b18e76f8906da", // 9 MPI+OpenMP(nowait) RND/tss 4n×4w seed=608840
	"5ad86ae7aac04af7", // 10 MPI+OpenMP STATIC/fac2 1n×1w seed=750328
	"156f6bfab53984ef", // 11 MPI+OpenMP(nowait) SS/fac2 4n×1w seed=210808
	"b1e0ff33d48f370f", // 12 MPI+OpenMP FSC/random 2n×2w seed=876122
	"a725bb722eb8a7f4", // 13 MPI+OpenMP(nowait) GSS/random 8n×4w seed=944779
	"b97e0aa587662623", // 14 MPI+OpenMP TSS/static 8n×1w seed=267631
	"99aec19b68c03551", // 15 MPI+OpenMP(nowait) FAC/static 1n×16w seed=846396
	"3ef70f1ece686a98", // 16 MPI+OpenMP FAC2/static,7 8n×8w seed=209512
	"8b5e65bc8c5af193", // 17 MPI+OpenMP(nowait) WF/static,7 3n×4w seed=404262
	"cd7d915d639c8f4f", // 18 MPI+OpenMP TFSS/dynamic 8n×8w seed=959225
	"fb4c603bd62b5f9f", // 19 MPI+OpenMP(nowait) RND/dynamic 2n×16w seed=194165
	"a588e0eb2afb6825", // 20 MPI+OpenMP STATIC/guided 4n×8w seed=445035
	"225e1064d771e861", // 21 MPI+OpenMP(nowait) SS/guided 3n×8w seed=629695
	"bb3b26fb5f228374", // 22 MPI+OpenMP FSC/tss 3n×1w seed=735930
	"3b816c56a88178ad", // 23 MPI+OpenMP(nowait) GSS/tss 3n×1w seed=638327
}
