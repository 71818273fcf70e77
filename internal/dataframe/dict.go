package dataframe

import (
	"sync"
	"sync/atomic"
)

// Dict is an append-only interned-string dictionary: every distinct word
// gets a dense uint32 code in first-appearance order. String series store
// per-row codes plus a shared *Dict instead of per-row string headers,
// which turns key hashing, grouping, joining, and store serialization of
// string columns into integer operations.
//
// Concurrency: interning takes a mutex; code→word reads are lock-free
// against an atomically published slice snapshot, so parallel kernels can
// decode cells while (rarely) another goroutine interns. Codes are never
// reassigned, so a snapshot can only lag — never lie.
type Dict struct {
	mu    sync.Mutex
	code  map[string]uint32
	arr   []string                 // backing storage; guarded by mu for writes
	words atomic.Pointer[[]string] // published read snapshot of arr
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{code: make(map[string]uint32)}
	empty := []string{}
	d.words.Store(&empty)
	return d
}

// Len reports the number of interned words.
func (d *Dict) Len() int { return len(*d.words.Load()) }

// Word returns the word for a code. Codes come from Intern/Code and are
// always in range for the snapshot that produced them.
func (d *Dict) Word(code uint32) string { return (*d.words.Load())[code] }

// Words returns the interned words in code order. The slice is a shared
// snapshot: read-only.
func (d *Dict) Words() []string { return *d.words.Load() }

// Intern returns the code for word, assigning the next dense code on
// first sight.
func (d *Dict) Intern(word string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.code[word]; ok {
		return c
	}
	c := uint32(len(d.arr))
	d.arr = append(d.arr, word)
	d.code[word] = c
	snap := d.arr // header copy: readers never see indices past their len
	d.words.Store(&snap)
	return c
}

// Code returns the code of an already-interned word.
func (d *Dict) Code(word string) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.code[word]
	return c, ok
}

// wordTable collects a dictionary's words before anyone shares it: no
// lock and no snapshot per word; dict publishes the result once.
type wordTable struct {
	words []string
	code  map[string]uint32
}

func (w *wordTable) intern(word string) uint32 {
	if c, ok := w.code[word]; ok {
		return c
	}
	if w.code == nil {
		w.code = make(map[string]uint32)
	}
	c := uint32(len(w.words))
	w.words = append(w.words, word)
	w.code[word] = c
	return c
}

// dict adopts the collected words as a dictionary; w must not be used
// afterwards.
func (w *wordTable) dict() *Dict {
	if w.code == nil {
		return NewDict()
	}
	d := &Dict{code: w.code, arr: w.words}
	snap := w.words
	d.words.Store(&snap)
	return d
}
