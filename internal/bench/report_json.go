package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// BenchReport wraps one experiment's result for the machine-readable
// bench trajectory: pyxis-bench -json writes one BENCH_<experiment>.json
// per experiment so successive PRs can be compared number-for-number
// instead of by eyeballing tables. The envelope carries the host facts
// a comparison must normalize by (a 1-CPU runner cannot show parallel
// speedup; race instrumentation flattens it).
type BenchReport struct {
	Experiment string    `json:"experiment"`
	Generated  time.Time `json:"generated"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Race       bool      `json:"race"`
	// GatesSkipped lists every wall-clock acceptance gate the run
	// self-skipped (too few CPUs, too few sessions, race detector on),
	// one human-readable entry per gate. Always present — an empty list
	// is the machine-readable statement that every gate was enforced,
	// so CI can reject reports that silently dodged their gates.
	GatesSkipped []string `json:"gates_skipped"`
	Data         any      `json:"data"`
}

// SaveReport writes data as BENCH_<experiment>.json under dir (""
// means the current directory) and returns the path written.
// gatesSkipped names the wall-clock gates this run did not enforce;
// pass nothing when every gate ran.
func SaveReport(dir, experiment string, data any, gatesSkipped ...string) (string, error) {
	if gatesSkipped == nil {
		gatesSkipped = []string{} // marshal as [], never null
	}
	rep := BenchReport{
		Experiment:   experiment,
		Generated:    time.Now().UTC(),
		GoMaxProcs:   goruntime.GOMAXPROCS(0),
		NumCPU:       goruntime.NumCPU(),
		Race:         raceEnabled,
		GatesSkipped: gatesSkipped,
		Data:         data,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal %s report: %w", experiment, err)
	}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
