package lru

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// order lists the cached values, most recently used first.
func order(c *Cache[string, int]) string { return fmt.Sprint(c.Values()) }

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // touch a: b becomes LRU
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if got, want := order(c), "[4 1]"; got != want {
		t.Fatalf("MRU order %q, want %q", got, want)
	}
	c.Add("a", 10) // replace in place, move to front, no growth
	if got, want := order(c), "[10 4]"; got != want || c.Len() != 2 {
		t.Fatalf("after re-add: %q (len %d), want %q", got, c.Len(), want)
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[string, int](1)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprint(i), i)
		if c.Len() != 1 {
			t.Fatalf("len %d after %d adds", c.Len(), i+1)
		}
	}
	if v, ok := c.Get("4"); !ok || v != 4 {
		t.Fatalf("Get(4) = %d, %v", v, ok)
	}
}

func TestRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	New[string, int](0)
}

// TestConcurrentUse hammers one small cache from several goroutines;
// run under -race it proves the locking, and the size bound must hold.
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g) % 40
				if v, ok := c.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				c.Add(k, k*k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Fatalf("len %d, want 16", c.Len())
	}
	for _, v := range c.Values() {
		if r := int(math.Sqrt(float64(v))); r*r != v {
			t.Fatalf("value %d is not one that was added", v)
		}
	}
}
