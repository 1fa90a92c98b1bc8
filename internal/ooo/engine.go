package ooo

import "fmt"

// Engine selects the issue-queue simulation algorithm. Both engines produce
// bit-identical Stats for any instruction stream and any schedule of Run,
// RunWithLoads, Drain and Resize calls; they differ only in cost:
//
//   - EngineEvent: event-driven wakeup + ordered select. Per issued
//     instruction O(log W); per idle cycle O(1).
//   - EngineScan: the direct priority-encoder model. Per cycle O(W)
//     regardless of activity.
//
// Production cores run EngineEvent (New, NewMultiCore); EngineScan is reached
// only through NewWithEngine, by the differential and fuzz tests that hold
// the event engine to it.
type Engine uint8

const (
	// EngineEvent is the event-driven wakeup/select engine.
	EngineEvent Engine = iota
	// EngineScan is the per-cycle window-scan engine, kept as the
	// executable specification the event engine is verified against.
	EngineScan
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineScan:
		return "scan"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}
