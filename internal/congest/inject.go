package congest

// Fault injection hook. The engine calls an optional Injector at fixed
// points — when a vertex steps (crash-stop), once per sent message on
// delivery (drop, corrupt, stall) and once per stepped vertex after the
// round's deliveries (stall release) — so a seeded fault plan perturbs a
// run exactly as it would perturb a loop that steps every vertex every
// round. internal/chaos provides the compiled deterministic
// implementation; the hook itself is policy-free.
//
// Contract (what makes injected runs identical to the step-all reference):
//
//   - Crashed(r, v) is called whenever v steps: at round 0, on a message,
//     on a wake-up. It must answer as if it were asked every round.
//   - Deliver is called once per sent message. For a fixed receiver the
//     calls come in ascending (sender, sender port) order; calls for
//     different receivers interleave, so implementations may keep
//     per-receiver and per-directed-edge mutable state but must not share
//     mutable state across receivers.
//   - Released(r, dst) is called after round r's Deliver calls for every
//     vertex stepped in round r; WakeAt makes dst step in every round a
//     stalled message toward it is due.
//   - WakeAt(r, v) is called after every step of v and after every stall
//     toward v.
//   - Pending is called at the end of a round in which no message was
//     delivered and every node is done.
//
// A nil Network.Injector skips every hook; the steady-state round stays
// allocation-free either way.

// DeliveryFate is an Injector's ruling on one in-flight message.
type DeliveryFate uint8

// The delivery fates.
const (
	// FateDeliver delivers the (possibly rewritten) message this round.
	FateDeliver DeliveryFate = iota
	// FateDrop discards the message; the sender is not notified.
	FateDrop
	// FateStall withholds the message now; the injector must hand it back
	// through Released in a later round or report it via Pending until it
	// does.
	FateStall
)

// Injector intercepts a run at the engine's fault-injection points. See the
// comment above for the contract.
type Injector interface {
	// Crashed reports whether vertex v is crash-stopped at round r. A
	// crashed vertex does not step (its program is never called again),
	// sends nothing, and counts as done for termination; messages already
	// in flight to it are still delivered and ignored.
	Crashed(round, v int) bool
	// Deliver adjudicates the message from src (leaving on srcPort) into
	// dst (arriving on dstPort) at the given round. It may rewrite the
	// message (corruption) by returning a modified copy with FateDeliver;
	// it must not mutate msg.Args in place, which the sender may share
	// across ports.
	Deliver(round, src, srcPort, dst, dstPort int, msg Message) (Message, DeliveryFate)
	// Released appends messages previously stalled toward dst whose delay
	// expires at this round onto inbox and returns the extended slice. The
	// appended messages must own their Args (the original sender's buffers
	// are long recycled).
	Released(round, dst int, inbox []Incoming) []Incoming
	// WakeAt returns the first round after round at which vertex v must
	// step even with an empty inbox — its crash round, or the release
	// round of a message stalled toward it — or -1 if there is none.
	WakeAt(round, v int) int
	// Pending reports whether the injector still withholds stalled
	// messages; the network does not terminate while it returns true.
	Pending() bool
}
