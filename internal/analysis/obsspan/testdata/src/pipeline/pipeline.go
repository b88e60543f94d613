// Package pipeline is the obsspan golden fixture: annotated recording
// sites that keep their promise, and each way of breaking it.
package pipeline

import (
	"context"
	"time"

	"fixture/obs"
)

var (
	rec = &obs.StageRecorder{}
	ctx = context.Background()
)

// Lookup records the stage it is annotated with: clean.
//
//spanjoin:stage cache
func Lookup() {
	t0 := time.Now()
	rec.ObserveItems(ctx, obs.StageCache, time.Since(t0), 1)
}

// Append records both of its annotated stages: clean.
//
//spanjoin:stage wal_append
//spanjoin:stage wal_fsync
func Append() {
	rec.Observe(ctx, obs.StageWALSync, time.Millisecond)
	rec.Observe(ctx, obs.StageWALAppend, time.Millisecond)
}

// Timed records from a deferred call, the shape of a cycle timed on
// every return path: clean.
//
//spanjoin:stage prefilter
func Timed() {
	t0 := time.Now()
	defer func() { rec.Observe(ctx, obs.StagePrefilter, time.Since(t0)) }()
}

// Deferred records from a closure, the shape of a worker-pool
// completion: clean.
//
//spanjoin:stage enumerate
func Deferred() {
	go func() {
		rec.ObserveItems(ctx, obs.StageEnumerate, time.Second, 10)
	}()
}

// Forgot promises a stage and records nothing.
//
//spanjoin:stage enumerate
func Forgot() { // want "annotated //spanjoin:stage enumerate but never records"
	_ = time.Now()
}

// Mismatched promises plan_build but records cache.
//
//spanjoin:stage plan_build
func Mismatched() { // want "annotated //spanjoin:stage plan_build but never records"
	rec.Observe(ctx, obs.StageCache, time.Millisecond)
}

// Unknown names a stage outside the taxonomy.
//
//spanjoin:stage warp_drive
func Unknown() { // want "unknown stage \"warp_drive\""
	rec.Observe(ctx, "warp_drive", time.Millisecond)
}

// Bare carries a nameless directive.
//
//spanjoin:stage
func Bare() { // want "wants exactly one stage name"
	rec.Observe(ctx, obs.StageCache, time.Millisecond)
}

// Unrelated uses a longer spanjoin: word — not this directive, not
// checked.
//
//spanjoin:stagecraft prop
func Unrelated() {}
