package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/serve"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	if !genSPD(5, 4, 4).sameBits(genSPD(5, 4, 4)) {
		t.Error("genSPD: same seed, different matrices")
	}
	if genSPD(5, 4, 4).sameBits(genSPD(6, 4, 4)) {
		t.Error("genSPD: different seeds, same matrix")
	}
	if !reflect.DeepEqual(spawnGrains(5), spawnGrains(5)) {
		t.Error("spawnGrains: same seed, different grains")
	}
	if reflect.DeepEqual(spawnGrains(5), spawnGrains(6)) {
		t.Error("spawnGrains: different seeds, same grains")
	}
	a, b, c := genSchedule(5, 4), genSchedule(5, 4), genSchedule(6, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("genSchedule: same seed, different schedules")
	}
	if reflect.DeepEqual(a.phases["heavy0"].reqs, c.phases["heavy0"].reqs) {
		t.Error("genSchedule: different seeds, same heavy phase")
	}
}

func TestSpawnGrainsHeavyTailed(t *testing.T) {
	g := spawnGrains(1)
	lo, hi := int64(1<<62), int64(0)
	for _, v := range g {
		lo, hi = min(lo, v), max(hi, v)
	}
	sum := int64(0)
	for _, v := range g {
		sum += v
	}
	if mean := sum / int64(len(g)); mean < spawnGrainMean-1 || mean > spawnGrainMean {
		t.Fatalf("mean grain %d, want %d", mean, spawnGrainMean)
	}
	if hi < 20*lo {
		t.Fatalf("grains span %d..%d", lo, hi)
	}
}

func TestScheduleShape(t *testing.T) {
	s := genSchedule(1, 10)
	p := s.phases["heavy0"]
	var submits, reads, scrapes int
	for i, q := range p.reqs {
		if i > 0 && q.due < p.reqs[i-1].due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		switch q.kind {
		case reqSubmit:
			submits++
		case reqRead:
			reads++
		case reqScrape:
			scrapes++
		}
	}
	rate := float64(submits) / p.dur.Seconds()
	if rate < 0.9*serveHeavy || rate > 1.1*serveHeavy {
		t.Errorf("heavy phase offers %.0f jobs/s, want about %.0f", rate, serveHeavy)
	}
	if share := float64(reads) / float64(reads+submits); share < 0.07 || share > 0.13 {
		t.Errorf("read share %.3f, want about %.2f", share, serveReadShare)
	}
	if want := int(p.dur / serveScrapeGap); scrapes < want-1 || scrapes > want {
		t.Errorf("%d scrapes in %v", scrapes, p.dur)
	}
}

func TestGraphBodyDecodes(t *testing.T) {
	s := genSchedule(2, 4)
	for ti := range s.templates[:32] {
		tm := &s.templates[ti]
		var g serve.GraphRequest
		if err := json.Unmarshal(tm.appendBody(nil, 123456), &g); err != nil {
			t.Fatalf("template %d: %v", ti, err)
		}
		if g.Lane != tm.lane || len(g.Tasks) != len(tm.spins) || len(g.Tasks) > serveMaxTasks {
			t.Fatalf("template %d: decoded %+v", ti, g)
		}
		for k, task := range g.Tasks {
			spin, job, idx := unpackAmount(task.Amount)
			if task.Op != "bench" || spin != tm.spins[k] || job != 123456 || idx != k {
				t.Fatalf("template %d task %d: amount %d unpacks to %d/%d/%d", ti, k, task.Amount, spin, job, idx)
			}
			if !reflect.DeepEqual(task.Deps, tm.deps[k]) && len(task.Deps)+len(tm.deps[k]) > 0 {
				t.Fatalf("template %d task %d: deps %v, want %v", ti, k, task.Deps, tm.deps[k])
			}
		}
	}
}
