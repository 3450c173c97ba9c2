package main

import (
	"fmt"
	"reflect"
	"testing"
)

func mixedSpec() serveSpec {
	return serveSpec{
		rate:     40,
		block:    []share{{kindEvaluate, 14}, {kindSweep, 5}, {kindAttack, 1}},
		evalCase: "case30", sweepCase: "case30", attackCase: "case9",
	}
}

func TestServeInputsFollowTheSeed(t *testing.T) {
	load := func(seed int64) (*payloads, []request) {
		pl, err := newPayloads(mixedSpec(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return pl, pl.st.take(400)
	}
	a, sa := load(7)
	b, sb := load(7)
	c, sc := load(8)
	if !reflect.DeepEqual(a.bodies, b.bodies) || !reflect.DeepEqual(sa, sb) {
		t.Fatal("one seed gave two different payload sets or schedules")
	}
	if reflect.DeepEqual(a.bodies, c.bodies) {
		t.Error("seeds 7 and 8 gave identical payloads")
	}
	if reflect.DeepEqual(sa, sc) {
		t.Error("seeds 7 and 8 gave identical schedules")
	}
}

// Every block of the schedule carries the nominal mix exactly; attacks
// alternate between the warm static-rating knowledge and a pooled true_dlr.
func TestScheduleKeepsTheMix(t *testing.T) {
	pl, err := newPayloads(mixedSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := pl.st.take(200)
	var attacks []int
	for b := 0; b < 10; b++ {
		count := map[string]int{}
		for _, r := range reqs[20*b : 20*b+20] {
			count[r.kind]++
			if r.kind == kindAttack {
				attacks = append(attacks, r.pool)
			}
			if _, ok := pl.bodies[r]; !ok {
				t.Fatalf("scheduled request %+v has no body", r)
			}
		}
		if want := map[string]int{kindEvaluate: 14, kindSweep: 5, kindAttack: 1}; !reflect.DeepEqual(count, want) {
			t.Errorf("block %d carries %v, want %v", b, count, want)
		}
	}
	for i, p := range attacks {
		if (p == -1) != (i%2 == 0) {
			t.Errorf("attack %d uses pool %d; memo and cold attacks must alternate", i, p)
		}
	}
}

func TestAttackInputsFollowTheSeed(t *testing.T) {
	inputs := func(seed int64) string {
		inst, err := startAttack(attackSpec{cases: []string{"case9", "case30"}, opts: servingOptions()}, params{seed: seed}, &probe{})
		if err != nil {
			t.Fatal(err)
		}
		a := inst.(*attackInst)
		out := ""
		for i := 0; i < 20; i++ {
			name, ud := a.input(i)
			out += fmt.Sprintf("%s %s\n", name, dlrText(ud))
		}
		return out
	}
	if inputs(5) != inputs(5) {
		t.Fatal("one seed gave two different attack input sequences")
	}
	if inputs(5) == inputs(6) {
		t.Error("seeds 5 and 6 gave identical attack inputs")
	}
}
