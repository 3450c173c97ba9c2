package lp

// kernels lists both basis factorization kernels, for tests that run the
// engine on each.
var kernels = []struct {
	name string
	k    kernel
}{{"dense", kernelDense}, {"sparse", kernelSparse}}

// withKernel returns opts with the basis kernel pinned to k instead of
// picked by the size and density rule.
func withKernel(opts Options, k kernel) Options {
	opts.kernel = k
	return opts
}
