package main

import (
	"sort"
	"sync"
)

// mirror is the generator's copy of every agent the server has
// acknowledged, plus the idle set: live agents no mutation is in flight
// for. Updates and leaves take their agent out of the idle set, so the
// mirror always knows each agent's final declaration.
type mirror struct {
	mu   sync.Mutex
	live map[string]*mirrorAgent
	idle []string
}

type mirrorAgent struct {
	elast []float64
	leaf  string
	// slot is the agent's index in idle, -1 while a mutation holds it.
	slot int
}

func newMirror(capacity int) *mirror {
	return &mirror{live: make(map[string]*mirrorAgent, capacity), idle: make([]string, 0, capacity)}
}

// add records an acknowledged join and makes the agent idle.
func (m *mirror) add(name string, elast []float64, leaf string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live[name] = &mirrorAgent{elast: elast, leaf: leaf, slot: len(m.idle)}
	m.idle = append(m.idle, name)
}

// take removes the idle agent pick selects from the idle set.
func (m *mirror) take(pick uint64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.idle) == 0 {
		return "", false
	}
	i := int(pick % uint64(len(m.idle)))
	name := m.idle[i]
	last := len(m.idle) - 1
	m.idle[i] = m.idle[last]
	m.live[m.idle[i]].slot = i
	m.idle = m.idle[:last]
	m.live[name].slot = -1
	return name, true
}

// peek returns the idle agent pick selects, leaving it idle.
func (m *mirror) peek(pick uint64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.idle) == 0 {
		return "", false
	}
	return m.idle[pick%uint64(len(m.idle))], true
}

// release makes a taken agent idle again.
func (m *mirror) release(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.live[name]
	a.slot = len(m.idle)
	m.idle = append(m.idle, name)
}

// set records an acknowledged update; move "" keeps the agent's leaf.
func (m *mirror) set(name string, elast []float64, move string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.live[name]
	a.elast = elast
	if move != "" {
		a.leaf = move
	}
}

// remove records an acknowledged leave of a taken agent.
func (m *mirror) remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.live, name)
}

func (m *mirror) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// sortedNames lists the live agents in name order, the server's
// canonical order.
func (m *mirror) sortedNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.live))
	for name := range m.live {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// get returns an agent's mirrored declaration. Callers use it only once
// every op has completed.
func (m *mirror) get(name string) *mirrorAgent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[name]
}

// leafCounts counts live agents per leaf.
func (m *mirror) leafCounts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int)
	for _, a := range m.live {
		out[a.leaf]++
	}
	return out
}
