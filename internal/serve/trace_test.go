package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gscalar"
	"gscalar/internal/experiments"
)

// captureTrace simulates abbr on a 2-SM G-Scalar chip, writing a replayable
// trace to dir/name.
func captureTrace(t *testing.T, dir, name, abbr string) string {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	sess, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	sess.Capture.Path = filepath.Join(dir, name)
	if _, err := sess.RunWorkload(context.Background(), abbr, 1); err != nil {
		t.Fatalf("capture %s: %v", abbr, err)
	}
	return sess.Capture.Path
}

// TestTraceReplacedBeforeRun pins the store's invariant for trace points
// whose file changes while they wait in the queue: a point keyed on the
// content at submission never stores a run of other content under that
// key. It fails with a resubmit error instead, and the resubmission keys
// and stores the new content.
func TestTraceReplacedBeforeRun(t *testing.T) {
	dir := t.TempDir()
	path := captureTrace(t, dir, "w.gstr", "HW")
	other := captureTrace(t, dir, "other.gstr", "HS")
	spec := "trace:" + path

	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 1})
	defer s.Drain()
	replaced := false
	s.testBeforeRun = func(PointSpec) {
		if !replaced {
			replaced = true
			if err := os.Rename(other, path); err != nil {
				t.Error(err)
			}
		}
	}
	req := map[string]any{"config": tinyConfig(), "arch": "gscalar", "workload": spec}
	cfg, err := gscalar.ConfigFromJSON(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := experiments.PointKey(cfg, 1, gscalar.GScalar, spec)

	id := submit(t, ts.URL, req)
	v := waitState(t, ts.URL, id, "failed")
	if msg := v.Points[0].Error; !strings.Contains(msg, "changed since the point was submitted") {
		t.Errorf("point error = %q, want the workload-changed error", msg)
	}
	if _, ok, err := s.st.Get(before); err != nil || ok {
		t.Fatalf("entry under the replaced content's key: ok=%v err=%v, want none", ok, err)
	}

	after := experiments.PointKey(cfg, 1, gscalar.GScalar, spec)
	if after == before {
		t.Fatal("key did not change with the file's content")
	}
	id = submit(t, ts.URL, req)
	waitState(t, ts.URL, id, "done")
	e, ok, err := s.st.Get(after)
	if err != nil || !ok {
		t.Fatalf("no entry under the new content's key: ok=%v err=%v", ok, err)
	}
	sess, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunWorkload(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Result) != string(want) {
		t.Errorf("stored result is not the replay of the content its key names:\nstored: %s\nreplay: %s", e.Result, want)
	}
	if _, ok, _ := s.st.Get(before); ok {
		t.Error("an entry appeared under the replaced content's key")
	}
}
