package mpeg

import "sync"

// Library is a collection of generated videos sharing one Params and one
// seed. Videos are generated lazily and cached; a Library may be shared
// across simulation runs (generation is deterministic, and Video values
// are immutable after generation), which matters because experiment
// sweeps replay the same video catalog hundreds of times.
type Library struct {
	params Params
	seed   uint64
	count  int

	mu     sync.Mutex
	videos map[int]*Video
}

// NewLibrary creates a library of `count` videos.
func NewLibrary(params Params, count int, seed uint64) *Library {
	if count <= 0 {
		panic("mpeg: library needs at least one video")
	}
	return &Library{
		params: params,
		seed:   seed,
		count:  count,
		videos: make(map[int]*Video, count),
	}
}

// Count returns the number of videos in the library.
func (l *Library) Count() int { return l.count }

// Get returns video id, generating it on first use.
func (l *Library) Get(id int) *Video {
	if id < 0 || id >= l.count {
		panic("mpeg: video id out of range")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.videos[id]
	if !ok {
		v = Generate(l.params, id, l.seed)
		l.videos[id] = v
	}
	return v
}

// libraryCache shares generated libraries across simulation runs in one
// process, keyed by the full generation identity.
var libraryCache sync.Map // key -> *Library

type libraryKey struct {
	params Params
	count  int
	seed   uint64
}

// SharedLibrary returns a process-wide cached library for the given
// identity. Experiment sweeps use this to avoid regenerating hundreds of
// megabytes of frame tables for every simulated configuration.
func SharedLibrary(params Params, count int, seed uint64) *Library {
	key := libraryKey{params: params, count: count, seed: seed}
	if v, ok := libraryCache.Load(key); ok {
		return v.(*Library)
	}
	lib := NewLibrary(params, count, seed)
	actual, _ := libraryCache.LoadOrStore(key, lib)
	return actual.(*Library)
}
