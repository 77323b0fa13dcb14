// Code generated by go test ./internal/mpi -run TestProtocolGolden -args -print-protocol-golden; DO NOT EDIT.

package mpi

// protocolGoldenWant is the digest of protocolStorm's observables.
const protocolGoldenWant = "d50301318a8708ec"
