package bench

import (
	"testing"

	"ompcloud/internal/kernels"
)

// TestNetChaosPartitionRowsVerified: a hard-partition row falls back to
// the host, and its outputs are compared with the clean run's, so the row
// reports them identical.
func TestNetChaosPartitionRowsVerified(t *testing.T) {
	row, err := runNetChaosRow(kernels.GEMM, netChaosScenarios[0], true, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Scenario != "hard-partition" || !row.FellBack {
		t.Fatalf("row = %+v, want a hard-partition host fallback", row)
	}
	if !row.Identical {
		t.Fatal("fallback row verified against the clean run but reports identical: false")
	}
}
