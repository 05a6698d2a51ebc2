package bench

import (
	"fmt"

	"pyxis"
	"pyxis/internal/interp"
	"pyxis/internal/runtime"
	"pyxis/internal/sim"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// ---------------------------------------------------------------------------
// Microbenchmark 1 (paper §7.3): Pyxis execution-block overhead versus
// native code, measured on a linked list with everything placed on one
// server (no control transfers — worst case for Pyxis).
// ---------------------------------------------------------------------------

// Micro1Source is the linked-list program in PyxJ.
const Micro1Source = `
class Node {
    int v;
    Node next;

    Node() {
    }
}

class List {
    Node head;
    int size;

    List() {
        size = 0;
    }

    entry void push(int v) {
        Node n = new Node();
        n.v = v;
        n.next = head;
        head = n;
        size++;
    }

    entry int sum() {
        int s = 0;
        Node cur = head;
        while (cur != null) {
            s += cur.v;
            cur = cur.next;
        }
        return s;
    }

    entry int count() {
        return size;
    }
}
`

// Micro1Partition compiles the linked list with everything on the
// application server (budget 0).
func Micro1Partition() (*pyxis.Partition, error) {
	sys, err := pyxis.Load(Micro1Source)
	if err != nil {
		return nil, err
	}
	db := sqldb.Open()
	err = sys.ProfileWorkload(db, func(ip *interp.Interp) error {
		obj, err := ip.NewObject("List")
		if err != nil {
			return err
		}
		push := sys.Prog.Method("List", "push")
		sum := sys.Prog.Method("List", "sum")
		for i := 0; i < 50; i++ {
			if _, err := ip.CallEntry(push, obj, val.IntV(int64(i))); err != nil {
				return err
			}
		}
		_, err = ip.CallEntry(sum, obj)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sys.Partition(0)
}

// Micro1Pyxis runs n pushes and one sum through the Pyxis runtime
// (single-sided deployment, wall-clock measured by the caller) and
// returns the sum.
func Micro1Pyxis(part *pyxis.Partition, n int) (int64, error) {
	dep := part.Deploy(sqldb.Open(), runtime.Options{})
	oid, err := dep.Client.NewObject("List")
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := dep.Client.CallEntry("List.push", oid, val.IntV(int64(i))); err != nil {
			return 0, err
		}
	}
	v, err := dep.Client.CallEntry("List.sum", oid)
	return v.I, err
}

// nativeNode mirrors the PyxJ list in plain Go.
type nativeNode struct {
	v    int64
	next *nativeNode
}

// Micro1Native runs the same workload in native Go.
func Micro1Native(n int) int64 {
	var head *nativeNode
	for i := 0; i < n; i++ {
		head = &nativeNode{v: int64(i), next: head}
	}
	s := int64(0)
	for cur := head; cur != nil; cur = cur.next {
		s += cur.v
	}
	return s
}

// ---------------------------------------------------------------------------
// Microbenchmark 2 (paper §7.4, Fig. 14): q1 selects, then CPU-bound
// SHA-1 rounds, then q2 selects — partitioned at three budgets and run
// under three database-server load levels.
// ---------------------------------------------------------------------------

// Micro2Source is the three-phase program.
const Micro2Source = `
class Micro {
    int acc;

    Micro() {
        acc = 0;
    }

    entry int run(int q1, int rounds, int q2) {
        int a = 0;
        int i = 0;
        while (i < q1) {
            table t = db.query("SELECT v FROM kv WHERE k = ?", i % 100);
            a += t.getInt(0, 0);
            i++;
        }
        int h = 7 + a % 13;
        int j = 0;
        while (j < rounds) {
            h = sys.sha1(h);
            j++;
        }
        if (h < 0) {
            h = -h;
        }
        int k = 0;
        while (k < q2) {
            table u = db.query("SELECT v FROM kv WHERE k = ?", (k + h) % 100);
            a += u.getInt(0, 0);
            k++;
        }
        acc = a;
        return a + h % 1000;
    }
}
`

// micro2DB builds the 100-row key/value table the queries hit.
func micro2DB() *sqldb.DB {
	db := sqldb.Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("INSERT INTO kv VALUES (?, ?)", val.IntV(int64(i)), val.IntV(int64(i*3))); err != nil {
			panic(err)
		}
	}
	return db
}

// Micro2Partitions generates the three partitions of Fig. 14: APP
// (low budget), APP—DB (medium budget: query phases on the database,
// compute phase on the application server), DB (high budget).
func Micro2Partitions() (app, mid, db *pyxis.Partition, err error) {
	build := func(frac float64) (*pyxis.Partition, error) {
		sys, err := pyxis.Load(Micro2Source)
		if err != nil {
			return nil, err
		}
		prof := micro2DB()
		err = sys.ProfileWorkload(prof, func(ip *interp.Interp) error {
			obj, err := ip.NewObject("Micro")
			if err != nil {
				return err
			}
			// Profile with the production ratio of queries to compute.
			_, err = ip.CallEntry(sys.Prog.Method("Micro", "run"), obj,
				val.IntV(40), val.IntV(200), val.IntV(40))
			return err
		})
		if err != nil {
			return nil, err
		}
		return sys.PartitionAt(frac)
	}
	if app, err = build(0); err != nil {
		return
	}
	if mid, err = build(0.55); err != nil {
		return
	}
	db, err = build(1.0)
	return
}

// Micro2Run measures the virtual completion time of one partition
// under a given number of background-loaded DB cores.
func Micro2Run(part *pyxis.Partition, dbCores, bgLoad, q1, rounds, q2 int, cm CostModel) float64 {
	eng := sim.New()
	appCPU := eng.NewResource("app-cpu", 8)
	dbCPU := eng.NewResource("db-cpu", dbCores)
	link := eng.NewLink(cm.RTT, cm.BandwidthBps)
	db := micro2DB()

	var took float64
	done := false
	// Background load: bgLoad processes burning 1 ms CPU slices.
	for i := 0; i < bgLoad; i++ {
		eng.Spawn(0, func(p *sim.Proc) {
			for !done {
				dbCPU.Use(p, 0.001)
			}
		})
	}
	eng.Spawn(0, func(p *sim.Proc) {
		env := &Env{P: p, AppCPU: appCPU, DBCPU: dbCPU, Link: link, CM: cm}
		sc := NewSimClient(part.Compiled, db, p, env)
		oid, err := sc.Client.NewObject("Micro")
		if err != nil {
			panic(err)
		}
		t0 := p.Now()
		if _, err := sc.Client.CallEntry("Micro.run", oid,
			val.IntV(int64(q1)), val.IntV(int64(rounds)), val.IntV(int64(q2))); err != nil {
			panic(fmt.Sprintf("micro2: %v", err))
		}
		env.Flush()
		took = p.Now() - t0
		done = true
	})
	eng.Run(1e12)
	return took
}
