package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"stems"
)

// totals sums the simulated statistics of a fixed set of runs. For the
// default seed they must equal the values kept in totals.json: a change
// that only speeds the simulator up leaves every one of them identical.
type totals struct {
	Accesses      uint64 `json:"accesses"`
	L1Hits        uint64 `json:"l1_hits"`
	Covered       uint64 `json:"covered"`
	OffChipReads  uint64 `json:"off_chip_reads"`
	Overpredicted uint64 `json:"overpredicted"`
	Cycles        uint64 `json:"cycles"`
}

func (t *totals) add(r stems.RunResult) {
	t.Accesses += r.Accesses
	t.L1Hits += r.L1Hits
	t.Covered += r.Covered
	t.OffChipReads += r.OffChipReads
	t.Overpredicted += r.Overpredicted
	t.Cycles += r.Cycles
}

//go:embed totals.json
var totalsJSON []byte

// checkTotals compares a workload's totals with the kept values when the
// run used the default seed (other seeds have no kept values). It
// describes a mismatch, or returns "".
func checkTotals(workload string, seed int64, got totals) string {
	if seed != defaultSeed {
		return ""
	}
	var kept map[string]totals
	if err := json.Unmarshal(totalsJSON, &kept); err != nil {
		return "totals.json: " + err.Error()
	}
	if want, ok := kept[workload]; !ok || got != want {
		b, _ := json.Marshal(got) // a struct of integers always marshals
		return fmt.Sprintf("%s seed %d totals %s differ from totals.json", workload, seed, b)
	}
	return ""
}
