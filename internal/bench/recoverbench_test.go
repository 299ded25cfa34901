package bench

import (
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/graph"
)

// TestRecoveryPlansFireEveryKill runs every built-in recovery plan on
// each recovery-bench graph and requires one restart per scheduled kill:
// a kill scheduled after the run's last round never fires, and its row
// would measure a plan other than the one it names.
func TestRecoveryPlansFireEveryKill(t *testing.T) {
	for _, tc := range recoverKillCases {
		g := graph.RandomRegular(tc.n, tc.delta, 1)
		for _, np := range chaos.BuiltinRecovery(g, 42) {
			e, err := runKillPlan(g, tc.delta, 11, np, filepath.Join(t.TempDir(), "run.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if e.Restarts != len(np.Plan.Kills) {
				t.Errorf("Δ=%d %s: %d restarts for %d kills (the run took %d rounds)",
					tc.delta, np.Name, e.Restarts, len(np.Plan.Kills), e.Rounds)
			}
			if !e.Identical {
				t.Errorf("Δ=%d %s: resumed colouring differs from the uninterrupted run", tc.delta, np.Name)
			}
		}
	}
}
