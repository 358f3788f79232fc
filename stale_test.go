package fsdinference_test

import (
	"runtime"
	"testing"
	"time"

	"fsdinference"
)

// Serving outputs must depend only on the request's input values, never on
// which matrices earlier requests happened to occupy. These tests drive the
// public API the way a long-lived caller does: fresh inputs that the
// allocator places where collected ones used to live, and one input buffer
// refilled between requests.

func staleProbeModel(t *testing.T) *fsdinference.Model {
	t.Helper()
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublicCoalescedOutputsSurviveAddressReuse(t *testing.T) {
	m := staleProbeModel(t)
	const rounds = 100
	wrong := 0
	for i := 0; i < rounds; i++ {
		svc, err := fsdinference.NewService(fsdinference.NewEnv(),
			fsdinference.WithEndpoint("ep", m),
			fsdinference.WithCoalescing(2, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		in := []*fsdinference.Dense{
			fsdinference.GenerateInputs(64, 1, 0.2, int64(2*i+1)),
			fsdinference.GenerateInputs(64, 1, 0.2, int64(2*i+2)),
		}
		hs := []*fsdinference.Handle{svc.Submit("ep", in[0], 0), svc.Submit("ep", in[1], 0)}
		for j, h := range hs {
			resp, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if resp.BatchRequests != 2 {
				t.Fatalf("round %d: request %d ran in a batch of %d requests, want 2", i, j, resp.BatchRequests)
			}
			if !fsdinference.OutputsClose(resp.Output, fsdinference.Reference(m, in[j]), 1e-2) {
				wrong++
			}
		}
		runtime.GC()
	}
	if wrong > 0 {
		t.Fatalf("%d of %d coalesced outputs diverge from reference", wrong, 2*rounds)
	}
}

func TestPublicRefilledInputBufferGetsFreshOutput(t *testing.T) {
	m := staleProbeModel(t)
	svc, err := fsdinference.NewService(fsdinference.NewEnv(), fsdinference.WithEndpoint("ep", m))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	buf := fsdinference.GenerateInputs(64, 4, 0.2, 0)
	wrong := 0
	for i := 0; i < rounds; i++ {
		copy(buf.Data, fsdinference.GenerateInputs(64, 4, 0.2, int64(i+1)).Data)
		resp, err := svc.Submit("ep", buf, 0).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !fsdinference.OutputsClose(resp.Output, fsdinference.Reference(m, buf), 1e-2) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d outputs for a refilled input buffer diverge from reference", wrong, rounds)
	}
}
