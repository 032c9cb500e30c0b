package persist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// fault.go is the deterministic disk-fault injector: a Store wrapper that
// fails chosen operations on chosen calls, so the durability stack's
// degraded-mode machinery can be driven through ENOSPC-style append
// failures, fsync errors, torn writes and unreadable artifacts without a
// real failing disk. A rule list is evaluated per call, the first firing
// rule wins and SetEnabled arms it at runtime. It draws no randomness at
// all: rules trigger on exact call counts, so a chaos run replays bit-identically under -race and
// across platforms.

// FaultOp names a Store (or AppendFile) operation for rule matching.
type FaultOp uint8

const (
	// FaultAnyOp matches every operation.
	FaultAnyOp FaultOp = iota
	// FaultSave matches Store.Save (atomic snapshot writes).
	FaultSave
	// FaultLoad matches Store.Load.
	FaultLoad
	// FaultList matches Store.List.
	FaultList
	// FaultRemove matches Store.Remove.
	FaultRemove
	// FaultOpenAppend matches Store.OpenAppend (WAL open/rotation).
	FaultOpenAppend
	// FaultAppend matches AppendFile.Append: one WAL write, which is a whole
	// feed batch however many records it frames — a rule counts what the
	// disk sees, not objects.
	FaultAppend
	// FaultSync matches AppendFile.Sync (WAL fsync batches; Close syncs
	// too, so a sync rule can also fail Close).
	FaultSync
)

// String implements fmt.Stringer.
func (o FaultOp) String() string {
	switch o {
	case FaultAnyOp:
		return "any"
	case FaultSave:
		return "save"
	case FaultLoad:
		return "load"
	case FaultList:
		return "list"
	case FaultRemove:
		return "remove"
	case FaultOpenAppend:
		return "open-append"
	case FaultAppend:
		return "append"
	case FaultSync:
		return "sync"
	default:
		return fmt.Sprintf("FaultOp(%d)", uint8(o))
	}
}

// FaultKind is how a firing rule manifests.
type FaultKind uint8

const (
	// FaultFail returns an injected error without touching the store —
	// the ENOSPC/EIO shape: the operation simply did not happen.
	FaultFail FaultKind = iota
	// FaultShortWrite (Append only) writes a prefix of the write — the
	// first half of a batch, ending wherever that falls inside a record —
	// and then errors: the torn-write shape. Whole records before the tear
	// replay, the torn one is garbage the recovery path's CRC framing must
	// truncate away. For other ops it behaves like FaultFail.
	FaultShortWrite
)

// ErrInjected is wrapped by every error a FaultStore injects, so tests
// can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// injectedErr builds the op-shaped injected error. The detail strings
// mimic the errno text a real disk failure would carry.
func injectedErr(op FaultOp, name string) error {
	detail := "input/output error"
	switch op {
	case FaultSave, FaultAppend:
		detail = "no space left on device"
	case FaultRemove:
		detail = "operation not permitted"
	}
	return fmt.Errorf("%w: %s %s: %s", ErrInjected, op, name, detail)
}

// FaultRule fires an injected fault on deterministic call counts.
type FaultRule struct {
	// Op restricts the rule to one operation; FaultAnyOp matches all.
	Op FaultOp
	// Name restricts the rule to one file; empty matches all.
	Name string
	// Kind is the failure shape (FaultFail default).
	Kind FaultKind
	// After arms the rule only once this many matching calls have been
	// seen: After 0 fires from the first matching call, After N lets N
	// calls through first.
	After uint64
	// Count expires the rule after it has fired this many times; 0 never
	// expires.
	Count uint64
}

// faultRuleState pairs a rule with its per-rule deterministic counters.
type faultRuleState struct {
	FaultRule
	seen  uint64 // matching calls observed
	fired uint64 // faults injected
}

// matches reports whether the rule covers this call.
func (r *faultRuleState) matches(op FaultOp, name string) bool {
	if r.Op != FaultAnyOp && r.Op != op {
		return false
	}
	return r.Name == "" || r.Name == name
}

// FaultStore wraps a Store with rule-driven fault injection. All Store
// methods pass through to the inner store unless a rule fires; OpenAppend
// returns a FaultWAL so append/fsync failures inject at the WAL layer.
// Safe for concurrent use; counters are store-wide so rules stay
// deterministic across WAL rotations.
type FaultStore struct {
	inner   Store
	enabled atomic.Bool

	mu       sync.Mutex
	rules    []*faultRuleState
	injected atomic.Uint64
}

// NewFaultStore wraps inner with the given rules. The store starts
// enabled; SetEnabled(false) turns every rule into a no-op (calls are not
// counted while disabled, so re-enabling resumes the same deterministic
// schedule).
func NewFaultStore(inner Store, rules ...FaultRule) *FaultStore {
	fs := &FaultStore{inner: inner}
	for _, r := range rules {
		fs.rules = append(fs.rules, &faultRuleState{FaultRule: r})
	}
	fs.enabled.Store(true)
	return fs
}

// SetEnabled flips injection at runtime. Safe for concurrent use.
func (fs *FaultStore) SetEnabled(on bool) { fs.enabled.Store(on) }

// Injected returns how many faults have fired.
func (fs *FaultStore) Injected() uint64 { return fs.injected.Load() }

// Inner returns the wrapped store (tests corrupt or inspect through it).
func (fs *FaultStore) Inner() Store { return fs.inner }

// decide evaluates the rules for one call: every matching rule advances
// its counter, and the first armed, unexpired match fires. Purely
// counter-driven — no RNG — so a fault schedule is a function of the call
// sequence alone.
func (fs *FaultStore) decide(op FaultOp, name string) (FaultKind, bool) {
	if !fs.enabled.Load() {
		return 0, false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var kind FaultKind
	fired := false
	for _, r := range fs.rules {
		if !r.matches(op, name) {
			continue
		}
		r.seen++
		if fired {
			continue // first firing rule wins, later matches only count
		}
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		kind = r.Kind
		fired = true
	}
	if fired {
		fs.injected.Add(1)
	}
	return kind, fired
}

// Save implements Store.
func (fs *FaultStore) Save(name string, data []byte) error {
	if _, fire := fs.decide(FaultSave, name); fire {
		return injectedErr(FaultSave, name)
	}
	return fs.inner.Save(name, data)
}

// Load implements Store.
func (fs *FaultStore) Load(name string) ([]byte, error) {
	if _, fire := fs.decide(FaultLoad, name); fire {
		return nil, injectedErr(FaultLoad, name)
	}
	return fs.inner.Load(name)
}

// List implements Store.
func (fs *FaultStore) List() ([]string, error) {
	if _, fire := fs.decide(FaultList, ""); fire {
		return nil, injectedErr(FaultList, "store")
	}
	return fs.inner.List()
}

// Remove implements Store.
func (fs *FaultStore) Remove(name string) error {
	if _, fire := fs.decide(FaultRemove, name); fire {
		return injectedErr(FaultRemove, name)
	}
	return fs.inner.Remove(name)
}

// OpenAppend implements Store, wrapping the handle in a FaultWAL so
// append and fsync rules apply to it.
func (fs *FaultStore) OpenAppend(name string, truncateTo int64) (AppendFile, error) {
	if _, fire := fs.decide(FaultOpenAppend, name); fire {
		return nil, injectedErr(FaultOpenAppend, name)
	}
	f, err := fs.inner.OpenAppend(name, truncateTo)
	if err != nil {
		return nil, err
	}
	return &FaultWAL{inner: f, fs: fs, name: name}, nil
}

// FaultWAL is the fault-injecting AppendFile a FaultStore's OpenAppend
// returns: Append and Sync consult the store's rules (counters are shared
// store-wide, so a schedule spans WAL rotations). A FaultShortWrite
// append writes the first half of the bytes it was handed before erroring,
// leaving a torn frame the CRC-checked replay must drop.
type FaultWAL struct {
	inner AppendFile
	fs    *FaultStore
	name  string
}

// Append implements AppendFile.
func (w *FaultWAL) Append(p []byte) error {
	if kind, fire := w.fs.decide(FaultAppend, w.name); fire {
		if kind == FaultShortWrite && len(p) > 1 {
			// A torn write: part of the frame lands, then the device
			// fails. Ignore the inner error — the injected one wins.
			_ = w.inner.Append(p[:len(p)/2])
		}
		return injectedErr(FaultAppend, w.name)
	}
	return w.inner.Append(p)
}

// Sync implements AppendFile.
func (w *FaultWAL) Sync() error {
	if _, fire := w.fs.decide(FaultSync, w.name); fire {
		return injectedErr(FaultSync, w.name)
	}
	return w.inner.Sync()
}

// Close implements AppendFile. Close fsyncs, so a sync rule fails it.
func (w *FaultWAL) Close() error {
	if _, fire := w.fs.decide(FaultSync, w.name); fire {
		w.inner.Close() // release the handle regardless
		return injectedErr(FaultSync, w.name)
	}
	return w.inner.Close()
}
