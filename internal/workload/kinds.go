package workload

// SpecKind documents one spec kind accepted by ParseSpec — the machine-
// readable form of ParseSpec's doc table, served by hdlsd's /v1/workloads
// endpoint for discoverability.
type SpecKind struct {
	// Name is the kind token before the colon (aliases listed separately).
	Name string `json:"name"`
	// Aliases are alternate spellings ParseSpec accepts for this kind.
	Aliases []string `json:"aliases,omitempty"`
	// Params are the key=val parameter names the kind understands; ParseSpec
	// rejects any other key, naming these in this order.
	Params []string `json:"params"`
	// Example is a complete spec string ready to paste into Config.Workload.
	Example string `json:"example"`
	// Description says what cost distribution the kind generates.
	Description string `json:"description"`
}

// SpecKinds lists every ParseSpec kind in presentation order. The slice is
// freshly allocated per call; callers may reorder or annotate it.
func SpecKinds() []SpecKind {
	return []SpecKind{
		{Name: "constant", Params: []string{"n", "mean"},
			Example:     "constant:n=4096,mean=100e-6",
			Description: "every iteration costs exactly mean seconds (perfectly balanced)"},
		{Name: "uniform", Params: []string{"n", "mean", "lo", "hi"},
			Example:     "uniform:n=4096,lo=50e-6,hi=150e-6",
			Description: "iteration costs drawn uniformly from [lo, hi]"},
		{Name: "gaussian", Aliases: []string{"normal"}, Params: []string{"n", "mean", "sigma", "cv"},
			Example:     "gaussian:n=8192,cv=0.5",
			Description: "normally distributed costs, truncated positive; cv sets sigma/mean"},
		{Name: "exponential", Aliases: []string{"exp"}, Params: []string{"n", "mean"},
			Example:     "exponential:n=2048",
			Description: "exponentially distributed costs (heavy right tail)"},
		{Name: "gamma", Params: []string{"n", "mean", "shape", "scale"},
			Example:     "gamma:n=4096,shape=0.5",
			Description: "gamma-distributed costs; shape < 1 gives strong irregularity"},
		{Name: "bimodal", Params: []string{"n", "mean", "lo", "hi", "frac"},
			Example:     "bimodal:n=2048,frac=0.2",
			Description: "a frac fraction of hot iterations (mean hi) among cold ones (mean lo)"},
		{Name: "increasing", Params: []string{"n", "mean", "lo", "hi"},
			Example:     "increasing:n=4096,lo=10e-6,hi=200e-6",
			Description: "linear cost ramp from lo to hi across the iteration space"},
		{Name: "decreasing", Params: []string{"n", "mean", "lo", "hi"},
			Example:     "decreasing:n=4096,lo=10e-6,hi=200e-6",
			Description: "linear cost ramp from hi down to lo (adversarial for GSS-like decay)"},
		{Name: "mandelbrot", Aliases: []string{"mandel"}, Params: []string{"scale"},
			Example:     "mandelbrot:scale=8",
			Description: "the paper's Mandelbrot kernel profile at 1/scale size (highly imbalanced)"},
		{Name: "psia", Aliases: []string{"spinimage"}, Params: []string{"scale"},
			Example:     "psia:scale=8",
			Description: "the paper's spin-image (PSIA) kernel profile at 1/scale size (mildly imbalanced)"},
	}
}
