package dip_test

import (
	"math/rand"
	"testing"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pathouter"
)

// TestWithEngineSelectsEngine pins the channel-engine option at the
// dip layer: RunOnce runs on a Runner unless WithChannelEngine selects
// the channel engine, and Child forwards the choice to sub-executions
// (the tracer's engine tag is the witness). The registry-wide
// invariant — identical fingerprints across engines for every protocol
// and chaos strategy — is TestViewLocality's matrix.
func TestWithEngineSelectsEngine(t *testing.T) {
	const n = 32
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(5)), n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	proto := pathouter.Protocol(inst, p)

	for _, tc := range []struct {
		name, engine string
		opts         func(tr obs.Tracer) []dip.RunOption
	}{
		{"default", obs.EngineRunner,
			func(tr obs.Tracer) []dip.RunOption { return []dip.RunOption{dip.WithTracer(tr)} }},
		{"channels", obs.EngineChannels,
			func(tr obs.Tracer) []dip.RunOption {
				return []dip.RunOption{dip.WithTracer(tr), dip.WithChannelEngine()}
			}},
		{"channels, nested", obs.EngineChannels,
			func(tr obs.Tracer) []dip.RunOption {
				return dip.NewRunConfig(dip.WithTracer(tr), dip.WithChannelEngine()).Child("sub")
			}},
	} {
		collect := obs.NewCollect()
		res, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(17)), tc.opts(collect)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: honest run rejected", tc.name)
		}
		if got := collect.Runs()[0].Engine; got != tc.engine {
			t.Errorf("%s: engine tag %q, want %q", tc.name, got, tc.engine)
		}
	}
}

// TestRepeatHonorsEngine is the regression test for Repeat silently
// ignoring the engine option: every run of a Repeat under
// WithChannelEngine must execute on the channel engine (the tracer's
// engine tag is the witness), and the channel-engine trial must be
// metric-fingerprint-identical to the Runner trial on the same seed.
func TestRepeatHonorsEngine(t *testing.T) {
	const n, runs = 24, 3
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(9)), n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	proto := pathouter.Protocol(&pathouter.Instance{G: gi.G, Pos: gi.Pos}, p)

	trial := func(opts ...dip.RunOption) (dip.Trial, *obs.CollectTracer) {
		collect := obs.NewCollect()
		tr, err := proto.Repeat(dip.NewInstance(gi.G), runs, rand.New(rand.NewSource(21)),
			append(opts, dip.WithTracer(collect))...)
		if err != nil {
			t.Fatal(err)
		}
		return tr, collect
	}
	runnerTrial, runnerCollect := trial()
	chanTrial, chanCollect := trial(dip.WithChannelEngine())

	if got := chanCollect.Runs(); len(got) != runs {
		t.Fatalf("channels: %d traced runs, want %d", len(got), runs)
	} else {
		for i, m := range got {
			if m.Engine != obs.EngineChannels {
				t.Errorf("channels run %d executed on engine %q", i, m.Engine)
			}
		}
	}
	if runnerTrial != chanTrial {
		t.Errorf("trials diverge across engines: %+v vs %+v", runnerTrial, chanTrial)
	}
	if rf, cf := runnerCollect.Fingerprint(), chanCollect.Fingerprint(); rf != cf {
		t.Errorf("metric fingerprints diverge across engines:\nrunner:   %s\nchannels: %s", rf, cf)
	}
}

// TestCompositeNestingSpans asserts that a composite protocol's
// sub-executions appear as children of the composite span with
// path-joined span names (driver plumbing through outerplanar.Run).
func TestCompositeNestingSpans(t *testing.T) {
	// Importing outerplanar here would be a cycle-free external test
	// import; use the embedding composite via planarity instead? Keep it
	// direct: build a tiny traced composite with CompositeSpan + RunOnce.
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(7)), 16, 0.5)
	p, err := pathouter.NewParams(16)
	if err != nil {
		t.Fatal(err)
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	proto := pathouter.Protocol(inst, p)

	collect := obs.NewCollect()
	cfg := dip.NewRunConfig(dip.WithTracer(collect), dip.WithProtocol("fake-composite"))
	res := &dip.Outcome{Accepted: true}
	end := cfg.CompositeSpan("fake-composite", 16, 5, &res)
	if _, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(1)), cfg.Child("stage-a")...); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(2)), cfg.Child("stage-b")...); err != nil {
		t.Fatal(err)
	}
	end()

	runs := collect.Runs()
	if len(runs) != 1 {
		t.Fatalf("want one top-level run, got %d", len(runs))
	}
	top := runs[0]
	if top.Engine != obs.EngineComposite || len(top.Subs) != 2 {
		t.Fatalf("composite: engine=%q subs=%d", top.Engine, len(top.Subs))
	}
	if top.Subs[0].Span != "stage-a" || top.Subs[1].Span != "stage-b" {
		t.Fatalf("sub spans: %q, %q", top.Subs[0].Span, top.Subs[1].Span)
	}
	if top.Subs[0].Protocol == "" {
		t.Fatal("sub-run lost its protocol tag")
	}
}
