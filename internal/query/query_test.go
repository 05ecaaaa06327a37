package query

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"scalana/internal/baseline"
	"scalana/internal/detect"
	"scalana/internal/store"

	scalana "scalana"
)

var fixtures = filepath.Join("..", "..", "testdata")

// fixtureEnv returns an environment whose store holds the committed cg
// fixtures (np 4 and 8), plus a second, different run at np=8 when
// history is set — enough for a watch to have a baseline.
func fixtureEnv(t *testing.T, history bool) Env {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{4, 8} {
		data, err := os.ReadFile(filepath.Join(fixtures, fmt.Sprintf("cg.%d.json", np)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put("cg", np, data); err != nil {
			t.Fatal(err)
		}
		if history && np == 8 {
			// The np=8 fixture with its elapsed time edited: distinct bytes,
			// so a distinct run in the content-addressed history.
			second := bytes.Replace(data, []byte(`"elapsed": `), []byte(`"elapsed": 1`), 1)
			if bytes.Equal(second, data) {
				t.Fatal("fixture has no elapsed field to edit")
			}
			if _, err := st.Put("cg", np, second); err != nil {
				t.Fatal(err)
			}
		}
	}
	return Env{Engine: scalana.NewEngine(), Store: st}
}

func detectBytes(t *testing.T, e Env, q Detect) (*detect.Report, []byte) {
	t.Helper()
	q.App, q.Config = scalana.GetApp("cg"), detect.DefaultConfig()
	plan, err := e.Detect(q)
	if err != nil {
		t.Fatal(err)
	}
	rep, data, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, data
}

// TestDetectSourcesAgree: the committed cg fixtures give identical
// detect bytes from the store source and the profiles-directory source,
// naming the scales or — the rule both front ends share — leaving them
// empty for "every stored scale"; and the report renders to the
// committed golden.
func TestDetectSourcesAgree(t *testing.T) {
	e := fixtureEnv(t, false)
	rep, fromStore := detectBytes(t, e, Detect{Scales: []int{4, 8}})
	_, fromDir := detectBytes(t, e, Detect{ProfilesDir: fixtures, Scales: []int{4, 8}})
	_, allStored := detectBytes(t, e, Detect{})
	if !bytes.Equal(fromStore, fromDir) {
		t.Errorf("store source and profiles-directory source differ (%d vs %d bytes)", len(fromStore), len(fromDir))
	}
	if !bytes.Equal(fromStore, allStored) {
		t.Errorf("empty scales did not select every stored scale ascending (%d vs %d bytes)", len(allStored), len(fromStore))
	}
	if json, err := rep.EncodeJSON(); err != nil || !bytes.Equal(append(json, '\n'), fromStore) {
		t.Errorf("canonical bytes are not EncodeJSON + newline (err %v)", err)
	}
	prog, err := scalana.GetApp("cg").Parse()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fixtures, "cg.profiles.report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(prog); got != string(want) {
		t.Errorf("rendered report diverged from testdata/cg.profiles.report.txt:\n%s", got)
	}
}

// TestWatchCachedEqualsUncached: a watch through a sample cache (the
// service's environment) gives the bytes of a watch that ingests every
// run itself (scalana-detect's), and a second cached watch ingests
// nothing.
func TestWatchCachedEqualsUncached(t *testing.T) {
	e := fixtureEnv(t, true)
	q := Watch{App: scalana.GetApp("cg"), Params: baseline.DefaultParams()}
	watch := func(e Env) []byte {
		t.Helper()
		plan, err := e.Watch(q)
		if err != nil {
			t.Fatal(err)
		}
		data, err := plan.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	uncached := watch(e)

	cache, ingests := map[store.Key]*baseline.Sample{}, 0
	cached := e
	cached.Sample = func(app *scalana.App, ent store.Entry) (*baseline.Sample, error) {
		if smp := cache[ent.Key]; smp != nil {
			return smp, nil
		}
		ingests++
		smp, err := e.Ingest(app, ent)
		cache[ent.Key] = smp
		return smp, err
	}
	if first := watch(cached); !bytes.Equal(first, uncached) {
		t.Errorf("cached watch differs from uncached (%d vs %d bytes)", len(first), len(uncached))
	}
	if ingests != 3 {
		t.Errorf("first cached watch ingested %d runs, want all 3", ingests)
	}
	if second := watch(cached); !bytes.Equal(second, uncached) || ingests != 3 {
		t.Errorf("second cached watch: identical=%t, ingests=%d (want 3)", bytes.Equal(second, uncached), ingests)
	}
	if rep, err := baseline.DecodeReport(uncached); err != nil || rep.NP != 8 || rep.Runs != 2 {
		t.Errorf("watch did not default to the largest stored scale: %+v (err %v)", rep, err)
	}
}

// TestWatchValidation: the rejections both front ends share, with the
// status the service answers and the text both print.
func TestWatchValidation(t *testing.T) {
	e := fixtureEnv(t, true)
	def := baseline.DefaultParams()
	with := func(edit func(*Watch)) Watch {
		q := Watch{App: scalana.GetApp("cg"), Params: def}
		edit(&q)
		return q
	}
	for _, tc := range []struct {
		q      Watch
		status int
		msg    string
	}{
		{with(func(q *Watch) { q.Params.ZThd = -1 }), http.StatusBadRequest, `bad z "-1"`},
		{with(func(q *Watch) { q.Params.CUSUMThd = -1 }), http.StatusBadRequest, `bad cusum "-1"`},
		{with(func(q *Watch) { q.Params.CUSUMK = -2 }), http.StatusBadRequest, `bad cusum-k "-2"`},
		{with(func(q *Watch) { q.Params.MinShare = -0.5 }), http.StatusBadRequest, `bad min-share "-0.5"`},
		{with(func(q *Watch) { q.Params.MinRuns = 0 }), http.StatusBadRequest, `bad min-runs "0"`},
		{with(func(q *Watch) { q.NP = -8 }), http.StatusBadRequest, `bad np "-8"`},
		{with(func(q *Watch) { q.NP = 64 }), http.StatusNotFound, `no profile sets stored for app "cg" at np=64`},
		{with(func(q *Watch) { q.App = scalana.GetApp("zeusmp") }), http.StatusNotFound, `no profile sets stored for app "zeusmp"`},
	} {
		_, err := e.Watch(tc.q)
		var qe *Error
		if !errors.As(err, &qe) || qe.Status != tc.status || qe.Msg != tc.msg {
			t.Errorf("want %d %q, got %v", tc.status, tc.msg, err)
		}
	}
}
