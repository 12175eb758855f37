package exp

import (
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
	"ibmig/internal/payload"
)

// TestSessionsReleaseExtents checks that an experiment session releases its
// process images, memory regions and files at teardown: the process-wide
// live-extent level returns to where it started after every call.
func TestSessionsReleaseExtents(t *testing.T) {
	live := func() int64 { return payload.DataPlaneSnapshot().LiveExtents }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"RunComparison", func() { RunComparison(npb.LU, QuickScale, core.Options{}) }},
		{"RunMigrationStreamed", func() { RunMigrationStreamed(npb.LU, QuickScale, core.Options{}, false, 1<<16) }},
	} {
		for i := 0; i < 2; i++ {
			base := live()
			tc.run()
			if got := live(); got != base {
				t.Errorf("%s call %d: live extents %d after teardown, want %d (leak of %d)",
					tc.name, i, got, base, got-base)
			}
		}
	}
}
