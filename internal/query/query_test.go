package query

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalana/internal/baseline"
	"scalana/internal/detect"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
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

// allPPG is the detect answer from every scale's full PPG through
// detect.Detect alone: the bytes each stored-detect path must give.
func allPPG(t *testing.T, e Env, app *scalana.App, nps []int, cfg detect.Config) []byte {
	t.Helper()
	_, graph, err := e.Engine.Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var runs []detect.ScaleRun
	for _, np := range nps {
		ent, err := e.Store.Only(app.Name, np)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.Store.Get(ent.Key)
		if err != nil {
			t.Fatal(err)
		}
		pg, _, err := ppg.Decode(data, graph, np)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, detect.ScaleRun{NP: np, PPG: pg})
	}
	rep, err := detect.Detect(runs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestDetectBytesOnEveryPath: a stored detect answers the bytes of
// detect.Detect over every scale's PPG whether its smaller scales are
// ingested with no cache, into a cold one, or read from a warm one. The
// zeusmp scales are named out of order, so the largest is not the last.
func TestDetectBytesOnEveryPath(t *testing.T) {
	cg, zeusmp := scalana.GetApp("cg"), scalana.GetApp("zeusmp")
	for _, tc := range []struct {
		name string
		env  Env
		app  *scalana.App
		nps  []int
	}{
		{"cg fixtures", fixtureEnv(t, false), cg, []int{4, 8}},
		{"zeusmp", storedEnv(t, zeusmp, []int{4, 8, 16}, 2000), zeusmp, []int{16, 4, 8}},
	} {
		cached := tc.env
		cached.Samples = &Samples{}
		cfg := detect.DefaultConfig()
		want := allPPG(t, tc.env, tc.app, tc.nps, cfg)
		for _, pass := range []struct {
			name    string
			env     Env
			ingests int
		}{{"no cache", tc.env, 0}, {"cold", cached, len(tc.nps) - 1}, {"warm", cached, 0}} {
			_, before := pass.env.Samples.Counts()
			plan, err := pass.env.Detect(Detect{App: tc.app, Scales: tc.nps, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := plan.Bytes(); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s, %s: %d bytes (err %v), want detect.Detect's %d", tc.name, pass.name, len(got), err, len(want))
			}
			if _, after := pass.env.Samples.Counts(); after-before != int64(pass.ingests) {
				t.Errorf("%s, %s: %d samples ingested, want %d", tc.name, pass.name, after-before, pass.ingests)
			}
		}
	}
}

// TestDetectKeyNamesEveryKnob: equal plan keys mean equal bytes, so a key
// names every resolved knob, and a zero field plans the key of the default
// it resolves to.
func TestDetectKeyNamesEveryKnob(t *testing.T) {
	zeusmp := scalana.GetApp("zeusmp")
	e := storedEnv(t, zeusmp, []int{4, 8, 16}, 2000)
	plan := func(edit func(*detect.Config)) Plan[*detect.Report] {
		cfg := detect.DefaultConfig()
		edit(&cfg)
		p, err := e.Detect(Detect{App: zeusmp, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	defaults := plan(func(*detect.Config) {})
	keys := map[string]string{defaults.Key: "defaults"}
	for name, edit := range map[string]func(*detect.Config){
		"abnormal threshold": func(c *detect.Config) { c.AbnormThd = 2 },
		"slope threshold":    func(c *detect.Config) { c.SlopeThd = -0.5 },
		"min share":          func(c *detect.Config) { c.MinShare = 0.05 },
		"top k":              func(c *detect.Config) { c.TopK = 3 },
		"comm causes":        func(c *detect.Config) { c.CommCauses = true },
	} {
		key := plan(edit).Key
		if other, ok := keys[key]; ok {
			t.Errorf("%s and %s share the key %s", name, other, key)
		}
		keys[key] = name
	}
	zero := plan(func(c *detect.Config) { c.AbnormThd = 0 })
	if zero.Key != defaults.Key {
		t.Errorf("a zero AbnormThd plans %s, an explicit 1.3 %s", zero.Key, defaults.Key)
	}
	want, err := defaults.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := zero.Bytes(); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a zero AbnormThd answers %d bytes (err %v), an explicit 1.3 %d", len(got), err, len(want))
	}
}

// storedEnv returns an environment whose store holds one profiled run of
// app at each scale, sampled at hz.
func storedEnv(tb testing.TB, app *scalana.App, nps []int, hz float64) Env {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	e := Env{Engine: scalana.NewEngine(), Store: st}
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = hz
	for _, np := range nps {
		out, err := e.Engine.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg})
		if err != nil {
			tb.Fatal(err)
		}
		data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := st.Put(app.Name, np, data); err != nil {
			tb.Fatal(err)
		}
	}
	return e
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
	plan, err := e.Watch(q)
	if err != nil {
		t.Fatal(err)
	}
	rep, uncached, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}

	cached := e
	cached.Samples = &Samples{}
	if first := watch(cached); !bytes.Equal(first, uncached) {
		t.Errorf("cached watch differs from uncached (%d vs %d bytes)", len(first), len(uncached))
	}
	if _, ingests := cached.Samples.Counts(); ingests != 3 {
		t.Errorf("first cached watch ingested %d runs, want all 3", ingests)
	}
	second := watch(cached)
	if _, ingests := cached.Samples.Counts(); !bytes.Equal(second, uncached) || ingests != 3 {
		t.Errorf("second cached watch: identical=%t, ingests=%d (want 3)", bytes.Equal(second, uncached), ingests)
	}
	if rep.NP != 8 || rep.Runs != 2 {
		t.Errorf("watch did not default to the largest stored scale: %+v", rep)
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

// handBuilt lays a store directory out by hand — path under the root to
// file content, a path ending in "/" being an empty directory — the way
// an older store version, a crash or an operator could have left it.
func handBuilt(t testing.TB, files map[string]string) Env {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if strings.HasSuffix(path, "/") {
			if err := os.MkdirAll(full, 0o755); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return Env{Store: st}
}

// hash spells a readable content address: one hex digit, 64 times.
func hash(digit string) string { return strings.Repeat(digit, 64) }

// set is the file name of the stored set with that address.
func set(digit string) string { return hash(digit) + ".json" }

// lines is a history.log naming those addresses in that order.
func lines(digits ...string) string {
	var b strings.Builder
	for _, d := range digits {
		b.WriteString(hash(d) + "\n")
	}
	return b.String()
}

// TestHistoriesParity pins what Histories answers over store
// directories in every state the reconciliation rules name, as literal
// expected values: "np:order" per stored scale, the order spelled by
// each address's digit.
func TestHistoriesParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string // the histories, or the error text
		is    error  // the sentinel an error must wrap
	}{
		{name: "logged order preserved, scales ascending",
			files: map[string]string{
				"cg/8/" + set("a"): "x", "cg/8/" + set("b"): "x", "cg/8/" + set("c"): "x",
				"cg/8/history.log":  lines("c", "a", "b"),
				"cg/16/" + set("d"): "x", "cg/16/history.log": lines("d"),
				"cg/4/" + set("f"): "x", "cg/4/" + set("e"): "x", "cg/4/history.log": lines("f", "e"),
				"zeusmp/64/" + set("0"): "x",
			},
			want: "4:fe 8:cab 16:d"},
		{name: "duplicate log lines collapse to the first",
			files: map[string]string{
				"cg/8/" + set("a"): "x", "cg/8/" + set("b"): "x",
				"cg/8/history.log": lines("b", "a", "b", "a") + "not a hash\n\n" + lines("b"),
			},
			want: "8:ba"},
		{name: "unlogged legacy sets follow the logged ones, hash-ascending",
			files: map[string]string{
				"cg/8/" + set("d"): "x", "cg/8/" + set("a"): "x", "cg/8/" + set("c"): "x", "cg/8/" + set("b"): "x",
				"cg/8/history.log":  lines("c"),
				"cg/16/" + set("9"): "x", "cg/16/" + set("3"): "x", // no log at all
			},
			want: "8:cabd 16:39"},
		{name: "a logged set that is gone",
			files: map[string]string{
				"cg/4/" + set("a"): "x",
				"cg/8/" + set("a"): "x", "cg/8/history.log": lines("a", "b"),
			},
			want: "store: history cg/8 names " + hash("b") + " but no such set is stored: store corrupt",
			is:   store.ErrCorrupt},
		{name: "directories holding no set are not scales",
			files: map[string]string{
				"cg/4/" + set("a"):  "x",
				"cg/16/":            "",
				"cg/32/history.log": lines("e"), "cg/32/.put-77": "torn upload",
				"cg/64/" + hash("b") + ".tmp": "x", "cg/64/" + set("c") + "/": "",
				"cg/x/" + set("d"): "x", "cg/128": "a file",
			},
			want: "4:a"},
		{name: "unknown app", files: map[string]string{"zeusmp/8/" + set("a"): "x"},
			want: `no profile sets stored for app "cg"`},
		{name: "app with only empty scales", files: map[string]string{"cg/8/": "", "cg/16/history.log": lines("a")},
			want: `no profile sets stored for app "cg"`},
	} {
		e := handBuilt(t, tc.files)
		nps, hists, err := e.Histories("cg")
		var got string
		if err != nil {
			got = err.Error()
			var qe *Error
			if tc.is == nil && (!errors.As(err, &qe) || qe.Status != http.StatusNotFound) {
				t.Errorf("%s: error %v is not a 404", tc.name, err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.is)
			}
		} else {
			var parts []string
			for _, np := range nps {
				order := ""
				for _, ent := range hists[np] {
					if ent.App != "cg" || ent.NP != np || ent.Hash != hash(ent.Hash[:1]) {
						t.Errorf("%s: np=%d holds entry %v", tc.name, np, ent.Key)
					}
					order += ent.Hash[:1]
				}
				parts = append(parts, fmt.Sprintf("%d:%s", np, order))
			}
			got = strings.Join(parts, " ")
			if len(hists) != len(nps) {
				t.Errorf("%s: %d scales but %d histories", tc.name, len(nps), len(hists))
			}
		}
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestResolveEveryStoredScale: an empty scale selection means the scales
// that hold a set — the rule Histories applies — and each must hold
// exactly one.
func TestResolveEveryStoredScale(t *testing.T) {
	e := handBuilt(t, map[string]string{
		"cg/8/" + set("b"): "eight", "cg/8/history.log": lines("b"),
		"cg/4/" + set("a"):  "four",
		"cg/16/":            "",
		"cg/32/history.log": lines("e"),
	})
	entries, err := e.resolve("cg", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []store.Entry{
		{Key: store.Key{App: "cg", NP: 4, Hash: hash("a")}, Size: 4},
		{Key: store.Key{App: "cg", NP: 8, Hash: hash("b")}, Size: 5},
	}
	if fmt.Sprint(entries) != fmt.Sprint(want) {
		t.Errorf("resolve(every stored scale) = %v, want %v", entries, want)
	}
	if _, err := e.resolve("cg", []int{4, 16}, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("naming a scale that holds no set: %v, want os.ErrNotExist", err)
	}

	if err := os.WriteFile(filepath.Join(e.Store.Root(), "cg", "8", set("c")), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.resolve("cg", nil, nil); !errors.Is(err, store.ErrAmbiguous) {
		t.Errorf("two sets at one scale: %v, want ErrAmbiguous", err)
	}
	var qe *Error
	_, err = e.resolve("zeusmp", nil, nil)
	if !errors.As(err, &qe) || qe.Status != http.StatusNotFound || qe.Msg != `no profile sets stored for app "zeusmp"` {
		t.Errorf("nothing stored: %v", err)
	}
}

// BenchmarkHistories is the store side of one /v1/watch: four scales of
// 64 runs each, listed and put in upload order.
func BenchmarkHistories(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for _, np := range []int{8, 16, 32, 64} {
		for run := 0; run < 64; run++ {
			if _, err := st.Put("cg", np, []byte(fmt.Sprintf("np %d run %d", np, run))); err != nil {
				b.Fatal(err)
			}
		}
	}
	e := Env{Store: st}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nps, hists, err := e.Histories("cg")
		if err != nil || len(nps) != 4 || len(hists[64]) != 64 {
			b.Fatalf("Histories = %v, %d runs at np=64, %v", nps, len(hists[64]), err)
		}
	}
}

// BenchmarkStoredDetect is a stored detect over zeusmp at np 64, 256 and
// 1024 (serve-detect-stored's scales): cold has no sample cache and
// ingests the two smaller scales on every detect, as scalana-detect
// -store does; warm reads them from a filled cache, as the service does
// after its first detect.
func BenchmarkStoredDetect(b *testing.B) {
	zeusmp := scalana.GetApp("zeusmp")
	cold := storedEnv(b, zeusmp, []int{64, 256, 1024}, 2000)
	warm := cold
	warm.Samples = &Samples{}
	for _, bc := range []struct {
		name string
		env  Env
	}{{"cold", cold}, {"warm", warm}} {
		b.Run(bc.name, func(b *testing.B) {
			plan, err := bc.env.Detect(Detect{App: zeusmp, Config: detect.DefaultConfig()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Bytes(); err != nil { // fills the warm cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Bytes(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// misfiled returns the fixture environment with the stored np=4 set also
// copied, byte for byte, into cg/<np>/ — where its content hash still
// verifies — and the entry the store lists it under.
func misfiled(t *testing.T, np int) (Env, store.Entry) {
	t.Helper()
	e := fixtureEnv(t, false)
	four, err := e.Store.Only("cg", 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.Store.Get(four.Key)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(e.Store.Root(), "cg", fmt.Sprint(np))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, four.Hash+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ent, err := e.Store.Only("cg", np)
	if err != nil {
		t.Fatal(err)
	}
	return e, ent
}

// TestMisfiledSetIsCorruptToEveryReader: a 4-rank run filed under np=16
// used to be fitted by detect as if it were a 16-rank run (200, with a
// cause) and listed by sweep at np=16, while watch alone called it
// corrupt. Every stored-source reader now says the same thing — a detect
// reading the set as a smaller scale through a sample cache too, which
// never holds it.
func TestMisfiledSetIsCorruptToEveryReader(t *testing.T) {
	e, ent := misfiled(t, 16)
	cg := scalana.GetApp("cg")
	want := fmt.Sprintf("stored set cg/16/%s decodes to np=4: store corrupt", ent.Hash)
	readers := map[string]func() error{
		"detect": func() error {
			plan, err := e.Detect(Detect{App: cg, Scales: []int{8, 16}, Config: detect.DefaultConfig()})
			if err == nil {
				_, err = plan.Bytes()
			}
			return err
		},
		"sweep": func() error {
			plan, err := e.Sweep(Sweep{App: cg, Scales: []int{8, 16}})
			if err == nil {
				_, err = plan.Bytes()
			}
			return err
		},
		"ingest": func() error {
			_, err := e.sample(cg, ent)
			return err
		},
		"watch": func() error {
			plan, err := e.Watch(Watch{App: cg, NP: 16, Params: baseline.DefaultParams()})
			if err == nil {
				_, err = plan.Bytes()
			}
			return err
		},
	}
	for name, read := range readers {
		if err := read(); !errors.Is(err, store.ErrCorrupt) || err.Error() != want {
			t.Errorf("%s of a misfiled set: %v, want %s", name, err, want)
		}
	}
	// The scales filed where they belong still answer.
	if _, data := detectBytes(t, e, Detect{Scales: []int{4, 8}}); len(data) == 0 {
		t.Error("detect over the sound scales answered nothing")
	}

	small, ent := misfiled(t, 2)
	small.Samples = &Samples{}
	want = fmt.Sprintf("stored set cg/2/%s decodes to np=4: store corrupt", ent.Hash)
	for pass := 1; pass <= 2; pass++ {
		plan, err := small.Detect(Detect{App: cg, Scales: []int{2, 8}, Config: detect.DefaultConfig()})
		if err == nil {
			_, err = plan.Bytes()
		}
		if !errors.Is(err, store.ErrCorrupt) || err.Error() != want {
			t.Errorf("detect %d with a misfiled smaller scale: %v, want %s", pass, err, want)
		}
	}
	if held, ingests := small.Samples.Counts(); held != 0 || ingests != 0 {
		t.Errorf("the cache holds %d samples after %d ingests of the misfiled smaller scale, want none", held, ingests)
	}
}

// TestStoredReadsAllocateNoRank gates what a stored detect and a stored
// sweep allocate over the cg fixtures (12 ranks): a detect its two graphs
// and the report, a sweep the store listing and its answer — neither a
// profile a rank. 193 and 113 objects when written, each gated with a
// quarter of headroom; materialising every rank first cost 410 and 177.
// With no sample cache (cold) a detect still decodes np=4 into a graph,
// for its sample; with a filled one (warm) it builds one graph: 211 and
// 163 objects when written, under the same ceilings as before (193 and
// 164 a quarter up), and warm below cold. The race runtime allocates on
// its own account, so the counts are gated only without it.
func TestStoredReadsAllocateNoRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not gated under the race detector")
	}
	cold := fixtureEnv(t, false)
	warm := cold
	warm.Samples = &Samples{}
	cg := scalana.GetApp("cg")
	detectIn := func(e Env) func() ([]byte, error) {
		return func() ([]byte, error) {
			plan, err := e.Detect(Detect{App: cg, Scales: []int{4, 8}, Config: detect.DefaultConfig()})
			if err != nil {
				return nil, err
			}
			return plan.Bytes()
		}
	}
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func() ([]byte, error)
	}{
		{"cold detect", 193 + 193/4, detectIn(cold)},
		{"warm detect", 164 + 164/4, detectIn(warm)},
		{"sweep", 113 + 113/4, func() ([]byte, error) {
			plan, err := cold.Sweep(Sweep{App: cg, Scales: []int{4, 8}})
			if err != nil {
				return nil, err
			}
			return plan.Bytes()
		}},
	} {
		allocs[tc.name] = testing.AllocsPerRun(10, func() {
			if _, err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("stored %s over the cg fixtures: %.0f objects", tc.name, allocs[tc.name])
		if allocs[tc.name] > tc.ceiling {
			t.Errorf("stored %s over the cg fixtures allocates %.0f objects; want at most %.0f", tc.name, allocs[tc.name], tc.ceiling)
		}
	}
	if allocs["warm detect"] >= allocs["cold detect"] {
		t.Errorf("a warm detect allocates %.0f objects, a cold one %.0f", allocs["warm detect"], allocs["cold detect"])
	}
}
