package spec

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/registry"
)

// TestWithScheduleBuildsDynamicScenario: the option threads through New,
// Validate, Build (typed schedule), and Run.
func TestWithScheduleBuildsDynamicScenario(t *testing.T) {
	s, err := New(
		WithTopology("geometric", nil),
		WithN(24),
		WithSchedule("churn", registry.Params{"p-down": 0.2, "epoch-len": 4}),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Sched.(*graph.ChurnSchedule); !ok {
		t.Fatalf("built schedule is %T, want *graph.ChurnSchedule", b.Sched)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("dynamic scenario did not complete")
	}
}

// TestScheduleDefaultsToStatic: scenarios without a schedule block — every
// pre-dynamics spec — validate, build a StaticSchedule, and keep their
// labels unchanged.
func TestScheduleDefaultsToStatic(t *testing.T) {
	var s Scenario
	if err := json.Unmarshal([]byte(`{"topology":{"name":"line"},"algorithm":{"name":"round-robin"},"adversary":{"name":"benign"},"n":8,"rule":3,"start":1,"seed":1}`), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pre-dynamics JSON no longer validates: %v", err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Sched.(*graph.StaticSchedule); !ok {
		t.Fatalf("default schedule is %T, want *graph.StaticSchedule", b.Sched)
	}
	if l := s.Label(); strings.Contains(l, "sched=") {
		t.Fatalf("static label %q mentions the schedule", l)
	}
	// Marshalling a static scenario emits no schedule block (omitzero), so
	// pre-dynamics serialized specs are byte-compatible in both directions.
	blob, err := json.Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "schedule") {
		t.Fatalf("static scenario marshals a schedule block: %s", blob)
	}
	dyn, err := New(WithSchedule("fade", nil))
	if err != nil {
		t.Fatal(err)
	}
	if l := dyn.Label(); !strings.Contains(l, "sched=fade") {
		t.Fatalf("dynamic label %q missing sched fragment", l)
	}
}

// TestScheduleJSONRoundTrip: a dynamic scenario survives JSON marshal →
// unmarshal → Build with identical run output.
func TestScheduleJSONRoundTrip(t *testing.T) {
	s, err := New(
		WithTopology("geometric", nil),
		WithN(20),
		WithSchedule("churn", registry.Params{"p-down": 0.3}),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"schedule"`) {
		t.Fatalf("marshalled scenario missing schedule block: %s", blob)
	}
	var back Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("round-tripped dynamic scenario runs differently")
	}
}

// TestScheduleValidation: unknown schedule names and bad params fail at
// Validate with the registry's typed error.
func TestScheduleValidation(t *testing.T) {
	s := Default()
	s.Schedule = Choice{Name: "waypont"}
	err := s.Validate()
	var unknown *registry.ErrUnknownName
	if !errors.As(err, &unknown) || unknown.Kind != "schedule" {
		t.Fatalf("err = %v, want a schedule ErrUnknownName", err)
	}
	s.Schedule = Choice{Name: "churn", Params: registry.Params{"bogus": 1}}
	if err := s.Validate(); err == nil {
		t.Fatal("bogus schedule param validated")
	}
}

// TestSweepSchedulesAxis: the schedule axis expands, labels, validates, and
// executes like any other axis — churn rate as a grid dimension.
func TestSweepSchedulesAxis(t *testing.T) {
	sw := Sweep{
		Base: func() Scenario {
			s := Default()
			s.Topology = Choice{Name: "geometric"}
			s.N = 20
			s.Seed = 3
			return s
		}(),
		Schedules: []Choice{
			{Name: "static"},
			{Name: "churn", Params: registry.Params{"p-down": 0.1}},
			{Name: "churn", Params: registry.Params{"p-down": 0.4}},
		},
		Trials: 4,
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	if cells[1].Label != `sched=churn{"p-down":0.1}` {
		t.Fatalf("cell 1 label = %q", cells[1].Label)
	}
	var want *GridResult
	for _, workers := range []int{1, 2, 8} {
		grid, err := sw.StreamFrom(context.Background(), engine.Config{Workers: workers}, engine.StreamConfig{}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = grid
			continue
		}
		if !reflect.DeepEqual(grid, want) {
			t.Fatalf("workers=%d grid differs from workers=1", workers)
		}
	}
	// The schedule axis must actually change outcomes across cells.
	s0, _ := want.Cells[0].Summary.Rounds.Mean()
	s2, _ := want.Cells[2].Summary.Rounds.Mean()
	if s0 == s2 {
		t.Fatal("static and churn cells have identical mean rounds; axis had no effect")
	}
	// A sweep JSON with a schedules axis parses into the same grid.
	blob := `{
		"base": {"topology": {"name": "geometric"}, "n": 20, "seed": 3},
		"schedules": [
			{"name": "static"},
			{"name": "churn", "params": {"p-down": 0.1}},
			{"name": "churn", "params": {"p-down": 0.4}}
		],
		"trials": 4
	}`
	var parsed Sweep
	if err := json.Unmarshal([]byte(blob), &parsed); err != nil {
		t.Fatal(err)
	}
	grid, err := parsed.StreamFrom(context.Background(), engine.Config{}, engine.StreamConfig{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, want) {
		t.Fatal("JSON sweep grid differs from the Go-constructed sweep")
	}
}

// TestSweepCellInvalidScheduleFails: axis validation reports the offending
// cell with the registry suggestion error.
func TestSweepCellInvalidScheduleFails(t *testing.T) {
	sw := Sweep{Base: Default(), Schedules: []Choice{{Name: "static"}, {Name: "churnn"}}}
	_, err := sw.Cells()
	if err == nil || !strings.Contains(err.Error(), "sweep cell 1") {
		t.Fatalf("err = %v, want a cell 1 failure", err)
	}
	var unknown *registry.ErrUnknownName
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want to wrap ErrUnknownName", err)
	}
}
