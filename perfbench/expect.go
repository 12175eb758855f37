package main

import "strconv"

// Committed expectations for the default seed. The reference run of each
// workload must reproduce them exactly before any iteration is timed, and
// every timed iteration must reproduce the reference.
var (
	committedComparison = map[int64]outputs{1: {
		"core.sim_total_ns": 6063951226,
		"core.bytes_moved":  178679904,
		"core.retries":      0,
		"cr.sim_ext3_ns":    10531891079,
		"cr.sim_pvfs_ns":    28264329404,
	}}
	committedLive = map[int64]outputs{1: {
		"core.sim_total_ns": 6063951226,
		"core.bytes_moved":  178679904,
		"sim.events":        2356404,
		"obs.published":     603573,
	}}
	committedPartitioned = map[int64]outputs{1: {
		"sim.events":         3522841,
		"sim.windows":        69676,
		"sim.cross_messages": 14350,
		"sim.virtual_ns":     10201523145,
	}}
	committedFleet = map[int64]outputs{1: {
		"fleet.fifo#0.fingerprint":          fingerprint64("aeb8dbc4164359ec"),
		"fleet.backfill#0.fingerprint":      fingerprint64("6132bd865cf7fdc8"),
		"fleet.fifo+auto#0.fingerprint":     fingerprint64("90c47a80aefcdb4b"),
		"fleet.backfill+auto#0.fingerprint": fingerprint64("407759d38f8685b9"),
		"fleet.fifo#1.fingerprint":          fingerprint64("555cec57819819dd"),
		"fleet.backfill#1.fingerprint":      fingerprint64("1933b032ba75e46c"),
		"fleet.fifo+auto#1.fingerprint":     fingerprint64("1ed6286e20474cac"),
		"fleet.backfill+auto#1.fingerprint": fingerprint64("1baa96c7d9f6cbad"),
		"fleet.jobs_total":                  3200,
	}}
)

// fingerprint64 reads a fleet.Result fingerprint as the int64 outputs hold.
func fingerprint64(hex string) int64 {
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		panic(err)
	}
	return int64(v)
}
