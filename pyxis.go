// Package pyxis automatically partitions database applications between
// an application server and a database server, reproducing the system
// of Cheung, Arden, Madden and Myers, "Automatic Partitioning of
// Database Applications" (VLDB 2012).
//
// The pipeline mirrors the paper's architecture (Fig. 1):
//
//	src := `class Order { ... entry void placeOrder(int cid, double dct) {...} }`
//	sys, _ := pyxis.Load(src)
//	db := sqldb.Open()                      // the database substrate
//	// 1. Profile a representative workload (paper §4.1).
//	sys.ProfileWorkload(db, func(ip *interp.Interp) error { ... })
//	// 2. Build the weighted partition graph (§4.2) and solve the
//	//    placement BIP under a DB instruction budget (§4.3).
//	part, _ := sys.Partition(sys.TotalLoad() * 0.9)
//	// 3. Deploy the compiled execution blocks on the two runtimes (§5, §6).
//	dep := part.Deploy(db, runtime.Options{})
//	oid, _ := dep.Client.NewObject("Order", val.IntV(42))
//	dep.Client.CallEntry("Order.placeOrder", oid, val.IntV(7), val.DoubleV(0.9))
//
// Multiple partitions generated at different budgets can be installed
// behind a runtime.DynamicClient, which switches between them as
// database load changes (§6.3).
package pyxis

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"pyxis/internal/analysis"
	"pyxis/internal/compile"
	"pyxis/internal/core"
	"pyxis/internal/dbapi"
	"pyxis/internal/interp"
	"pyxis/internal/pdg"
	"pyxis/internal/profile"
	"pyxis/internal/pyxil"
	"pyxis/internal/runtime"
	"pyxis/internal/source"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
	"pyxis/internal/verify"
)

// System is a loaded application: its source text, checked, plus the
// static analyses, ready to be profiled and partitioned.
type System struct {
	Src      string
	Prog     *source.Program
	Analysis *analysis.Result
	Profile  *profile.Profile
	Graph    *pdg.Graph
}

// Load parses, checks and statically analyzes a PyxJ program.
func Load(src string) (*System, error) {
	prog, err := source.Load(src)
	if err != nil {
		return nil, err
	}
	return &System{
		Src:      src,
		Prog:     prog,
		Analysis: analysis.Run(prog),
		Profile:  profile.New(),
	}, nil
}

// MustLoad is Load for known-good embedded sources.
func MustLoad(src string) *System {
	s, err := Load(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ProfileWorkload executes a workload against the reference
// interpreter with profiling instrumentation enabled, accumulating
// execution counts and data sizes (paper §4.1). It may be called
// multiple times; counts accumulate.
func (s *System) ProfileWorkload(db *sqldb.DB, fn func(ip *interp.Interp) error) error {
	ip := interp.New(s.Prog, dbapi.NewLocal(db))
	ip.Hooks = s.Profile.Hooks()
	if err := fn(ip); err != nil {
		return err
	}
	s.Graph = nil // weights are stale; rebuild lazily
	return nil
}

// ProfileSynthetic builds a rough profile by invoking every entry
// method once with zero-valued arguments against db. Real deployments
// should profile a representative workload instead (§4.1); this keeps
// CLI tools usable without one. Entry failures are tolerated (the
// partial profile still weights the code that did run).
func (s *System) ProfileSynthetic(db *sqldb.DB) error {
	return s.ProfileWorkload(db, func(ip *interp.Interp) error {
		for _, m := range s.Prog.EntryMethods() {
			var ctorArgs []interp.Value
			if ctor := m.Class.MethodByName(m.Class.Name); ctor != nil {
				for _, p := range ctor.Params {
					ctorArgs = append(ctorArgs, interp.Scalar(p.Type.Zero()))
				}
			}
			obj, err := ip.NewObject(m.Class.Name, ctorArgs...)
			if err != nil {
				continue
			}
			args := make([]val.Value, len(m.Params))
			for i, p := range m.Params {
				args[i] = p.Type.Zero()
			}
			_, _ = ip.CallEntry(m, obj, args...)
		}
		return nil
	})
}

// ExecScript runs ';'-separated SQL statements against db (schema
// loading for tools and tests).
func ExecScript(db *sqldb.DB, script string) error {
	sess := db.NewSession()
	for _, stmt := range strings.Split(script, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if _, err := sess.Exec(stmt); err != nil {
			return fmt.Errorf("pyxis: schema statement %q: %w", stmt, err)
		}
	}
	return nil
}

// EnsureGraph builds (or rebuilds) the weighted partition graph.
func (s *System) EnsureGraph() *pdg.Graph {
	if s.Graph == nil {
		s.Graph = pdg.Build(s.Analysis, s.Profile, pdg.Options{})
	}
	return s.Graph
}

// TotalLoad is the DB instruction load of running every statement on
// the database (the budget that admits an all-DB partition).
func (s *System) TotalLoad() float64 { return core.TotalLoad(s.EnsureGraph()) }

// Partition solves placement under the given DB instruction budget
// and compiles the resulting PyxIL to fused execution blocks.
func (s *System) Partition(budget float64) (*Partition, error) {
	g := s.EnsureGraph()
	place, rep, err := core.New(g).Partition(budget)
	if err != nil {
		return nil, err
	}
	px := pyxil.Generate(s.Analysis, g, place, pyxil.Options{})
	compiled, err := compile.Compile(px)
	if err != nil {
		return nil, err
	}
	compile.Fuse(compiled)
	// Fusion rewrites blocks in place and computes the liveness masks
	// the transfer codec ships; re-verify the result so a fusion bug
	// surfaces here instead of as wire corruption.
	if err := verify.Program(compiled); err != nil {
		return nil, fmt.Errorf("pyxis: fused program failed verification: %w", err)
	}
	return &Partition{System: s, Place: place, PyxIL: px, Compiled: compiled, Report: rep}, nil
}

// PartitionAt is Partition at a fraction of the total load (0 = all
// statements on the application server; 1 = budget for everything on
// the database server).
func (s *System) PartitionAt(fraction float64) (*Partition, error) {
	return s.Partition(s.TotalLoad() * fraction)
}

// Partition is one generated partitioning: placements, PyxIL, and the
// compiled execution-block program.
type Partition struct {
	System   *System
	Place    pdg.Placement
	PyxIL    *pyxil.Program
	Compiled *compile.Program
	Report   *core.Report
}

// spec is what determines a partition: the pipeline has no settings,
// so the same source, profile and budget compile the same program.
type spec struct {
	Source  string           `json:"source"`
	Profile *profile.Profile `json:"profile"`
	Budget  float64          `json:"budget"`
}

// Spec writes p out as JSON — its system's source and profile and its
// absolute budget — from which Rebuild compiles p as Partition built it.
func (p *Partition) Spec() ([]byte, error) {
	return json.Marshal(spec{Source: p.System.Src, Profile: p.System.Profile, Budget: p.Report.Budget})
}

// Rebuild compiles the partition a Spec describes, through the ordinary
// Load and Partition path. The bytes may come off the network, so a
// malformed spec is an error, never a panic.
func Rebuild(b []byte) (*Partition, error) {
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("pyxis: partition spec: %w", err)
	}
	// The decoder refuses NaN and infinite budgets, the solver negative ones.
	if sp.Profile == nil {
		return nil, errors.New("pyxis: partition spec has no profile")
	}
	sys, err := Load(sp.Source)
	if err != nil {
		return nil, err
	}
	sys.Profile = sp.Profile
	return sys.Partition(sp.Budget)
}

// Deploy wires the partition to a database in-process (tests,
// examples, simulation). For a real two-machine deployment see
// cmd/pyxis-dbserver and cmd/pyxis-app.
func (p *Partition) Deploy(db *sqldb.DB, opts runtime.Options) *runtime.Deployment {
	return runtime.NewDeployment(p.Compiled, db, opts)
}

// DBStatements returns how many statements the partition placed on the
// database server.
func (p *Partition) DBStatements() int { return p.Report.DBNodes }

// Describe summarizes the partition.
func (p *Partition) Describe() string {
	return fmt.Sprintf("%s; transfers(static)=%d", p.Report,
		pyxil.ControlTransfers(p.System.Prog, p.Place))
}

// WritePyxIL renders the PyxIL program (Fig. 3 style) to w.
func (p *Partition) WritePyxIL(w io.Writer) error {
	_, err := io.WriteString(w, p.PyxIL.String())
	return err
}
