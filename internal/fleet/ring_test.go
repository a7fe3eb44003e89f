package fleet

import (
	"fmt"
	"testing"
)

func TestRingOrderCoversAllMembersOnce(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3", "r4"}
	r := newRing(ids, 0)
	for k := 0; k < 100; k++ {
		order := r.Order(hashString(fmt.Sprintf("key-%d", k)))
		if len(order) != len(ids) {
			t.Fatalf("Order returned %d members, want %d", len(order), len(ids))
		}
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("member %s appears twice in %v", id, order)
			}
			seen[id] = true
		}
	}
}

func TestRingOrderDeterministic(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r1 := newRing(ids, 0)
	r2 := newRing(ids, 0)
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("fingerprint-%d", k)
		o1, o2 := r1.Order(hashString(key)), r2.Order(hashString(key))
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("key %q: rings disagree: %v vs %v", key, o1, o2)
			}
		}
	}
}

// Property: the load spread over many keys is roughly uniform — no
// member owns more than ~2.5x its fair share with the default vnode
// count.
func TestRingSpreadsKeys(t *testing.T) {
	ids := []string{"r0", "r1", "r2", "r3"}
	r := newRing(ids, 0)
	counts := map[string]int{}
	const keys = 4000
	for k := 0; k < keys; k++ {
		counts[r.Order(hashString(fmt.Sprintf("plan-fingerprint-%d", k)))[0]]++
	}
	fair := keys / len(ids)
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("member %s owns no keys", id)
		}
		if n > fair*5/2 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d) — spread too skewed", id, n, keys, fair)
		}
	}
}

// Property: consistent hashing moves few keys when a member joins — far
// fewer than the 3/4 a mod-N scheme would move going 3 → 4 members.
func TestRingStabilityOnMembershipGrowth(t *testing.T) {
	small := newRing([]string{"r0", "r1", "r2"}, 0)
	big := newRing([]string{"r0", "r1", "r2", "r3"}, 0)
	const keys = 2000
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("plan-%d", k)
		if small.Order(hashString(key))[0] != big.Order(hashString(key))[0] {
			moved++
		}
	}
	// Ideal is 1/4; allow up to 1/2 for hash noise.
	if moved > keys/2 {
		t.Fatalf("%d of %d keys moved adding one member; consistent hashing should move ~1/4", moved, keys)
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new member — it would receive no traffic")
	}
}

// The failover order must also be stable: element 1 is the hedge target
// and must be the same replica every time for a given key.
func TestRingFailoverOrderStable(t *testing.T) {
	r := newRing([]string{"x", "y", "z"}, 0)
	key := "some-canonical-fingerprint"
	first := r.Order(hashString(key))
	for i := 0; i < 10; i++ {
		again := r.Order(hashString(key))
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("failover order unstable: %v vs %v", first, again)
			}
		}
	}
}

func TestRingEmptyKey(t *testing.T) {
	r := newRing([]string{"only"}, 8)
	if got := r.Order(hashString("")); len(got) != 1 || got[0] != "only" {
		t.Fatalf("Order(\"\") = %v, want [only]", got)
	}
}
