package engine

import (
	"sync"
	"time"
)

// historyStore remembers each session's recent searches. Google Search
// personalizes on searches from the previous 10 minutes (the paper cites
// its prior work for this), which is exactly why the study's crawler waits
// 11 minutes between queries and clears cookies; the store exists so that
// discipline is load-bearing in our reproduction too.
//
// Sessions expire without a sweep. Crawlers that clear cookies create a
// fresh session per query and never return to it, so expiry is what keeps
// a long crawl from growing the store without bound.
type historyStore struct {
	mu       sync.Mutex
	window   time.Duration
	sessions map[string][]historyEntry
	// order names the session of every search held, oldest first. It and
	// each session's entries grow in the same record order, so the head
	// of order names the session whose first entry is the oldest search.
	order []string
}

type historyEntry struct {
	topic string
	at    time.Time
}

func newHistoryStore(window time.Duration) *historyStore {
	return &historyStore{
		window:   window,
		sessions: make(map[string][]historyEntry),
	}
}

// recent returns the distinct topics the session searched within the
// window ending at now, most recent first.
func (h *historyStore) recent(session string, now time.Time) []string {
	if session == "" {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expire(now)
	entries := h.sessions[session]
	var topics []string
	seen := make(map[string]bool)
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if now.Sub(e.at) > h.window {
			continue
		}
		if !seen[e.topic] {
			seen[e.topic] = true
			topics = append(topics, e.topic)
		}
	}
	return topics
}

// record notes that the session searched the topic at the given time.
func (h *historyStore) record(session, topic string, at time.Time) {
	if session == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expire(at)
	h.sessions[session] = append(h.sessions[session], historyEntry{topic: topic, at: at})
	h.order = append(h.order, session)
}

// expire drops the searches that left the window ending at now, oldest
// first, and each session left with none. Every search is pushed once
// and popped once, so the work per search is constant, amortized.
func (h *historyStore) expire(now time.Time) {
	for len(h.order) > 0 {
		session := h.order[0]
		entries := h.sessions[session]
		if now.Sub(entries[0].at) <= h.window {
			return
		}
		h.order[0] = ""
		h.order = h.order[1:]
		if len(entries) == 1 {
			delete(h.sessions, session)
		} else {
			h.sessions[session] = entries[1:]
		}
	}
}

// sessionCount reports how many sessions have live history (for stats
// endpoints and tests).
func (h *historyStore) sessionCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}
