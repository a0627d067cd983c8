package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

func TestWallClock(t *testing.T) {
	c := Wall()
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Wall().Now() = %v outside [%v, %v]", got, before, after)
	}
	start := time.Now()
	c.Sleep(time.Millisecond)
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("Wall().Sleep(1ms) returned after %v", elapsed)
	}
}

func TestManualNowAndAdvance(t *testing.T) {
	m := NewManual(epoch)
	if !m.Now().Equal(epoch) {
		t.Fatalf("Now = %v, want %v", m.Now(), epoch)
	}
	m.Advance(11 * time.Minute)
	if want := epoch.Add(11 * time.Minute); !m.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", m.Now(), want)
	}
	// Negative advance is a no-op.
	m.Advance(-time.Hour)
	if want := epoch.Add(11 * time.Minute); !m.Now().Equal(want) {
		t.Fatalf("Now after negative advance = %v, want %v", m.Now(), want)
	}
}

func TestManualSleepReleasesAtDeadline(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan time.Time, 1)
	go func() {
		m.Sleep(10 * time.Minute)
		done <- m.Now()
	}()
	m.WaitForSleepers(1)
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	m.Advance(10 * time.Minute)
	woke := <-done
	if woke.Before(epoch.Add(10 * time.Minute)) {
		t.Fatalf("woke at %v, want >= %v", woke, epoch.Add(10*time.Minute))
	}
}

func TestManualSleepNonPositive(t *testing.T) {
	m := NewManual(epoch)
	doneZero := make(chan struct{})
	go func() {
		m.Sleep(0)
		m.Sleep(-time.Second)
		close(doneZero)
	}()
	select {
	case <-doneZero:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestManualReleasesInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	for i, d := range durations {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			m.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, d)
	}
	m.WaitForSleepers(3)
	// Advance stepwise so each wake is observed before the next deadline
	// fires; a single large Advance would release all three channels at
	// once and the goroutine scheduler could record them in any order.
	for remaining := 2; remaining >= 0; remaining-- {
		m.Advance(10 * time.Minute)
		for m.Sleepers() > remaining {
			time.Sleep(time.Millisecond)
		}
		// Wait until the woken goroutine has recorded itself.
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n >= 3-remaining {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	// Sleeper 1 (10m) must wake before 2 (20m) before 0 (30m).
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestManualPartialAdvance(t *testing.T) {
	m := NewManual(epoch)
	var woke atomic.Int32
	var wg sync.WaitGroup
	for _, d := range []time.Duration{5 * time.Minute, 15 * time.Minute} {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			m.Sleep(d)
			woke.Add(1)
		}(d)
	}
	m.WaitForSleepers(2)
	m.Advance(10 * time.Minute)
	// Only the 5-minute sleeper should have woken.
	deadlineCheck := time.After(2 * time.Second)
	for woke.Load() < 1 {
		select {
		case <-deadlineCheck:
			t.Fatal("first sleeper never woke")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if n := m.Sleepers(); n != 1 {
		t.Fatalf("Sleepers = %d, want 1", n)
	}
	m.Advance(10 * time.Minute)
	wg.Wait()
	if woke.Load() != 2 {
		t.Fatalf("woke = %d, want 2", woke.Load())
	}
}

func TestManualAdvanceTo(t *testing.T) {
	m := NewManual(epoch)
	target := epoch.Add(3 * time.Hour)
	m.AdvanceTo(target)
	if !m.Now().Equal(target) {
		t.Fatalf("Now = %v, want %v", m.Now(), target)
	}
	// AdvanceTo into the past is a no-op.
	m.AdvanceTo(epoch)
	if !m.Now().Equal(target) {
		t.Fatalf("Now after past AdvanceTo = %v, want %v", m.Now(), target)
	}
}

func TestNextDeadline(t *testing.T) {
	m := NewManual(epoch)
	if _, ok := m.NextDeadline(); ok {
		t.Fatal("NextDeadline ok with no sleepers")
	}
	go m.Sleep(7 * time.Minute)
	m.WaitForSleepers(1)
	d, ok := m.NextDeadline()
	if !ok || !d.Equal(epoch.Add(7*time.Minute)) {
		t.Fatalf("NextDeadline = %v,%v want %v,true", d, ok, epoch.Add(7*time.Minute))
	}
	m.Advance(7 * time.Minute)
}

func TestManualConcurrentSleepAdvanceStress(t *testing.T) {
	m := NewManual(epoch)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				m.Sleep(time.Duration(i%7+1) * time.Second)
			}
		}(i)
	}
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	for {
		select {
		case <-fin:
			return
		default:
			m.Advance(time.Second)
		}
	}
}

func TestDriveUntilElidesSleeps(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	var rounds atomic.Int64
	go func() {
		defer close(done)
		// A worker that alternates real (instant) work with long virtual
		// sleeps — the crawler's shape. DriveUntil must complete all of it
		// without wall-clock waiting.
		for i := 0; i < 50; i++ {
			m.Sleep(11 * time.Minute)
			rounds.Add(1)
		}
	}()
	start := time.Now()
	m.DriveUntil(done)
	if got := rounds.Load(); got != 50 {
		t.Fatalf("rounds = %d, want 50", got)
	}
	if want := epoch.Add(50 * 11 * time.Minute); !m.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", m.Now(), want)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DriveUntil took %v for 50 virtual sleeps", elapsed)
	}
}

func TestDriveUntilBlocksWithoutSpinning(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Real work with no virtual sleep registered yet: the driver has
		// nothing to advance and must park on the arrival channel rather
		// than spin.
		time.Sleep(50 * time.Millisecond)
		m.Sleep(time.Hour)
	}()
	m.DriveUntil(done)
	if want := epoch.Add(time.Hour); !m.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", m.Now(), want)
	}
}

func TestSleeperArrivedSignals(t *testing.T) {
	m := NewManual(epoch)
	go m.Sleep(time.Minute)
	select {
	case <-m.SleeperArrived():
	case <-time.After(2 * time.Second):
		t.Fatal("no arrival signal for a parked sleeper")
	}
	m.Advance(time.Minute)
}

// TestHoldBlocksDriver pins the quiesce protocol: with a hold out, the
// driver must not hop to a parked sleeper's deadline; the hop happens
// only after Release.
func TestHoldBlocksDriver(t *testing.T) {
	m := NewManual(epoch)
	m.Hold()
	go m.Sleep(time.Minute) // parks a deadline the driver wants to hop to
	<-m.SleeperArrived()

	done := make(chan struct{})
	go func() {
		// Give the driver a beat to (wrongly) advance, then check.
		time.Sleep(50 * time.Millisecond)
		if !m.Now().Equal(epoch) {
			t.Error("driver advanced past an out hold")
		}
		m.Release()
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	m.DriveUntil(done)
	if want := epoch.Add(time.Minute); !m.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v after release", m.Now(), want)
	}
}

// TestSleepHeldReacquiresAtWake checks the atomic re-hold: a worker in
// SleepHeld wakes up already holding, so the driver cannot hop past the
// wake instant before the worker parks again.
func TestSleepHeldReacquiresAtWake(t *testing.T) {
	m := NewManual(epoch)
	m.Hold()
	woke := make(chan struct{})
	go func() {
		m.SleepHeld(time.Minute)
		close(woke)
	}()
	<-m.SleeperArrived()
	if m.Holds() != 0 {
		t.Fatalf("holds = %d during SleepHeld, want 0", m.Holds())
	}
	m.Advance(time.Minute)
	<-woke
	if m.Holds() != 1 {
		t.Fatalf("holds = %d after wake, want 1 (re-acquired)", m.Holds())
	}
	// A second sleeper parks; the driver must now wait for the worker.
	go m.Sleep(time.Minute)
	<-m.SleeperArrived()
	done := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		if !m.Now().Equal(epoch.Add(time.Minute)) {
			t.Error("driver hopped past a re-acquired hold")
		}
		m.Release()
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	m.DriveUntil(done)
	if want := epoch.Add(2 * time.Minute); !m.Now().Equal(want) {
		t.Fatalf("clock = %v, want %v", m.Now(), want)
	}
}

// TestHolderOfDiscovery: Manual exposes the Holder surface, Wall does not.
func TestHolderOfDiscovery(t *testing.T) {
	if HolderOf(NewManual(epoch)) == nil {
		t.Fatal("Manual is not discovered as a Holder")
	}
	if HolderOf(Wall()) != nil {
		t.Fatal("Wall pretends to be holdable")
	}
	// Release without Hold is a clamped no-op, not a corrupted counter.
	m := NewManual(epoch)
	m.Release()
	if m.Holds() != 0 {
		t.Fatalf("holds = %d after spurious release", m.Holds())
	}
}
