package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload on tiny inputs with short phases, untraced
// and traced: each must pass its own checks with no failed operation and
// report every metric its mode prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the servers")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				e := &env{ctx: context.Background(), seed: 3, budget: 2 * time.Second, trace: traced,
					root: root, work: t.TempDir(), tiny: true}
				r, err := fn(e)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range r.checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !r.correct() || r.attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.correct(), r.attempted, r.failed)
				}
				if traced {
					if len(r.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					if _, ok := r.metrics["trace.overhead_pct"]; !ok {
						t.Error("traced run did not report its overhead")
					}
					return
				}
				for _, d := range endToEnd {
					if r.metrics[d.Name] <= 0 {
						t.Errorf("%s = %v, want > 0", d.Name, r.metrics[d.Name])
					}
				}
			})
		}
	}
}
