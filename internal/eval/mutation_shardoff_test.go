//go:build !shardmut

package eval

// shardMutated lets the parallel-engine battery's assertions skip under
// the -tags shardmut mutation build (where failed runs are the expected
// outcome, proven by the mutation tests).
const shardMutated = false
