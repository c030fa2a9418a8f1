package main

import (
	"time"

	"repro/internal/storage"
)

// OpStats is what a TimingStore saw of one operation kind.
type OpStats struct {
	Count, Bytes, Errors uint64
	Busy                 time.Duration
	// Latencies holds one wall-clock sample per call, in call order.
	Latencies []time.Duration
}

func (o *OpStats) observe(d time.Duration, n int, err error) {
	o.Count++
	o.Bytes += uint64(n)
	o.Busy += d
	o.Latencies = append(o.Latencies, d)
	if err != nil {
		o.Errors++
	}
}

// TimingStore is a transparent storage.Store wrapper: every call is
// passed through unchanged, timed on the wall clock, counted, and
// recorded as a span named "<layer>.<op>" in the recorder. It changes no
// byte and no error, so a wrapped run's outputs equal an unwrapped one's.
type TimingStore struct {
	inner storage.Store
	layer string
	rec   *Recorder

	Puts, Gets, Deletes, Lists OpStats
}

// NewTimingStore wraps inner, naming its spans after layer.
func NewTimingStore(inner storage.Store, layer string, rec *Recorder) *TimingStore {
	return &TimingStore{inner: inner, layer: layer, rec: rec}
}

func (t *TimingStore) begin(op string) (int, time.Time) {
	return t.rec.Begin(t.layer + "." + op), time.Now()
}

func (t *TimingStore) end(span int, start time.Time, o *OpStats, n int, err error) {
	o.observe(time.Since(start), n, err)
	t.rec.End(span)
}

// Put implements storage.Store.
func (t *TimingStore) Put(key string, data []byte) error {
	span, start := t.begin("put")
	err := t.inner.Put(key, data)
	t.end(span, start, &t.Puts, len(data), err)
	return err
}

// Get implements storage.Store.
func (t *TimingStore) Get(key string) ([]byte, error) {
	span, start := t.begin("get")
	data, err := t.inner.Get(key)
	t.end(span, start, &t.Gets, len(data), err)
	return data, err
}

// Delete implements storage.Store.
func (t *TimingStore) Delete(key string) error {
	span, start := t.begin("delete")
	err := t.inner.Delete(key)
	t.end(span, start, &t.Deletes, 0, err)
	return err
}

// Keys implements storage.Store.
func (t *TimingStore) Keys() ([]string, error) {
	span, start := t.begin("keys")
	keys, err := t.inner.Keys()
	t.end(span, start, &t.Lists, 0, err)
	return keys, err
}

// Size implements storage.Store.
func (t *TimingStore) Size() (uint64, error) {
	span, start := t.begin("size")
	n, err := t.inner.Size()
	t.end(span, start, &t.Lists, 0, err)
	return n, err
}

// Busy is the wall-clock time spent inside the wrapped store.
func (t *TimingStore) Busy() time.Duration {
	return t.Puts.Busy + t.Gets.Busy + t.Deletes.Busy + t.Lists.Busy
}

// Errors counts calls the wrapped store failed.
func (t *TimingStore) Errors() uint64 {
	return t.Puts.Errors + t.Gets.Errors + t.Deletes.Errors + t.Lists.Errors
}
