//go:build shardmut

package radio

import "time"

// shardMutSkew, under the shardmut mutation build, delivers boundary
// (cross-shard) receptions one nanosecond early. That breaks the
// conservative-lookahead invariant — the delivery lands closer to the
// sending shard's committed horizon than one packet time, so the
// lookahead rule fails the run at the next barrier — and perturbs the
// (at, seq) order of boundary deliveries, so sharded traces diverge from
// serial.
// The mutation tests in internal/eval prove the differential battery
// catches both symptoms; see mutation_noshardmut.go for the nominal
// constant.
const shardMutSkew = -time.Nanosecond
