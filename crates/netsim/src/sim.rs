//! The network: wiring senders, the shared bottleneck, per-flow propagation
//! and jitter elements, receivers and ACK paths into one deterministic
//! event loop.
//!
//! Topology (the paper's §3 model):
//!
//! ```text
//! sender f ─► [Bernoulli loss] ─► Bottleneck(C, buffer) ─► + Rm(f) ─►
//!   jitter(f) ∈ [0, D] ─► receiver f ─► ACK (policy) ─► sender f
//! ```
//!
//! The whole round-trip propagation `Rm` is applied on the data path, so an
//! ACK reaches its sender at the instant the receiver (or its flush timer)
//! releases it. Only the sum is observable to an end-to-end CCA, so this
//! loses no generality and lets the adversarial jitter element target
//! full-RTT trajectories directly (as the proofs of Theorems 1–3 require).
//!
//! Dispatch order is `(time, scheduling order)`, as the timer wheel defines
//! it. Two kinds of work skip the wheel without changing that order:
//!
//! * **Same-instant lane.** Anything scheduled for the current instant —
//!   every ACK, and e.g. a workload flow's start wake — goes to a FIFO
//!   lane that drains after the current batch. The wheel would have put
//!   it in the next same-time batch, which also runs before any later
//!   time, in scheduling order.
//! * **Lazy RTO timers.** See `RtoTimer`: a real timeout fires at the
//!   same `(time, seq)` as when every deadline move filed a wheel entry.

use crate::config::{FlowConfig, SimConfig, Transport};
use crate::jitter::JitterElement;
use crate::link::{Bottleneck, Enqueue};
use crate::metrics::{FlowRecord, RunStats, SimResult};
use crate::packet::{Ack, FlowId, Packet};
use crate::receiver::Receiver;
use crate::pktstore::{PktStore, SeqStore};
use crate::sender::{Emit, Sender};
use crate::workload::WorkloadRun;
use simcore::wheel::TimerWheel;
use simcore::rng::Xoshiro256;
use simcore::trace::{Auditor, Event, FlowAuditSpec, TraceSink};
use simcore::units::{count_as_u64, Dur, Time};
use std::collections::VecDeque;

/// Simulator events filed on the timer wheel.
#[derive(Debug)]
enum Ev {
    /// A sender may be able to transmit (flow start, pacing timer, etc.).
    Wake(FlowId),
    /// The bottleneck finishes transmitting its head packet.
    Depart,
    /// A data packet reaches its receiver.
    DataArrive(Packet),
    /// A receiver's delayed-ACK/aggregation timer fires.
    RxFlush(FlowId, Time),
    /// An entry of a sender's retransmission timer comes due (see
    /// [`RtoTimer`]).
    Rto(FlowId),
    /// The workload's next flow arrives (self-rescheduling).
    FlowArrival,
}

/// Work for the current instant, queued in the same-instant lane.
#[derive(Debug)]
enum Now {
    /// An acknowledgement reaches its sender.
    Ack(Ack),
    /// Any other event scheduled for the current instant.
    Ev(Ev),
}

/// One flow's retransmission timer, armed lazily.
///
/// The reference is eager arming: one wheel entry per move of the sender's
/// deadline, of which all but the last pop to no effect. Here a move
/// reserves the seq that entry would have taken, but an entry is filed
/// only when the new deadline is earlier than every entry the flow already
/// has on the wheel. An entry that pops before the deadline files itself
/// again at the deadline under the reserved seq, so a real timeout fires
/// at the same `(time, seq)` as under eager arming.
///
/// One case can differ: the deadline returns to an instant it held
/// earlier, but not just before, and the earlier reservation never reached
/// the wheel. Eager arming fired under the earlier seq, this under the
/// later one, so the timeout can only move behind events filed for that
/// same nanosecond in between. If the earlier entry is still on the wheel,
/// it fires under its own seq as before.
#[derive(Debug, Default)]
struct RtoTimer {
    /// The deadline last reserved, and the seq reserved for it.
    reserved: Option<(Time, u64)>,
    /// Times of the flow's entries on the wheel, latest first: the last
    /// one pops next. All distinct.
    filed: Vec<Time>,
}

/// What an RTO entry popping meant.
#[derive(Debug, PartialEq)]
enum RtoPop {
    /// The flow's deadline is now.
    Due,
    /// The deadline had moved; `refiled` if no other entry covered the
    /// new one, so this entry was filed again at it.
    Superseded { refiled: bool },
}

impl RtoTimer {
    /// Follow the sender's deadline, which may have moved to `deadline`.
    ///
    /// A deadline equal to the reserved one takes no new seq (eager arming
    /// filed nothing for it either), but its entry is filed if no entry
    /// covers it any more: one that popped while the deadline was elsewhere
    /// did not re-file.
    fn arm(&mut self, q: &mut TimerWheel<Ev>, flow: FlowId, deadline: Time) {
        let seq = match self.reserved {
            Some((d, seq)) if d == deadline => seq,
            _ => {
                let seq = q.reserve_seq();
                self.reserved = Some((deadline, seq));
                seq
            }
        };
        self.file_if_first(q, flow, deadline, seq);
    }

    /// The flow's earliest entry popped at `now`; `deadline` is the
    /// sender's deadline at this moment.
    fn pop(
        &mut self,
        q: &mut TimerWheel<Ev>,
        flow: FlowId,
        now: Time,
        deadline: Option<Time>,
    ) -> RtoPop {
        let popped = self.filed.pop();
        debug_assert_eq!(popped, Some(now), "RTO entries pop in filed order");
        if deadline == Some(now) {
            return RtoPop::Due;
        }
        let refiled = match self.reserved {
            Some((at, seq)) if deadline == Some(at) => self.file_if_first(q, flow, at, seq),
            _ => false,
        };
        RtoPop::Superseded { refiled }
    }

    /// File an entry at `at` under `seq` if it would pop before every
    /// entry already filed; returns whether it did.
    fn file_if_first(&mut self, q: &mut TimerWheel<Ev>, flow: FlowId, at: Time, seq: u64) -> bool {
        if self.filed.last().is_some_and(|&next| next <= at) {
            return false;
        }
        self.filed.push(at);
        q.schedule_at_seq(at, seq, Ev::Rto(flow));
        true
    }
}

/// A runnable network scenario.
/// Generic over the sender's per-sequence packet store: [`PktStore`]
/// (the flat arena, the default every call site gets) or
/// [`RefStore`](crate::pktstore::RefStore) via [`Network::with_store`]
/// (the original B-tree containers, kept as the equivalence oracle).
pub struct Network<S: SeqStore = PktStore> {
    q: TimerWheel<Ev>,
    /// Same-instant lane: work scheduled for the current instant, in
    /// scheduling order.
    lane: VecDeque<Now>,
    link: Bottleneck,
    senders: Vec<Sender<S>>,
    receivers: Vec<Receiver>,
    jitters: Vec<JitterElement>,
    rm: Vec<Dur>,
    loss: Vec<Option<(f64, Xoshiro256)>>,
    /// Earliest pending Wake per flow (deduplicates pacing timers: without
    /// this, every ACK adds a duplicate wake that reschedules itself
    /// forever and the event population grows without bound).
    wake_armed: Vec<Option<Time>>,
    /// Retransmission timer per flow.
    rto: Vec<RtoTimer>,
    /// Work counters reported on the [`SimResult`].
    stats: RunStats,
    /// Trace sink (possibly an [`Auditor`] wrapping the configured sink).
    /// `None` — the default — costs one branch per instrumentation point.
    trace: Option<Box<dyn TraceSink>>,
    /// Dynamic arrival schedule, if the scenario carries one.
    workload: Option<WorkloadRun>,
    sample_every: Dur,
    end: Time,
}

impl Network {
    /// Build a network from a scenario description (arena-backed senders).
    pub fn new(cfg: SimConfig) -> Network {
        Network::with_store(cfg)
    }
}

impl<S: SeqStore> Network<S> {
    /// Build a network whose senders use packet store `S`. The default
    /// alias [`Network::new`] resolves `S = PktStore`; the metamorphic
    /// equivalence suite instantiates `Network::<RefStore>` to replay the
    /// same scenarios through the original B-tree bookkeeping.
    pub fn with_store(cfg: SimConfig) -> Network<S> {
        // Build the trace sink first: the audit specs need per-flow MSS and
        // jitter bounds before `cfg.flows` is consumed below. Only the
        // statically-configured flows are registered here; workload flows
        // announce themselves to the auditor via `flow-arrive` events.
        let trace: Option<Box<dyn TraceSink>> = {
            let inner: Option<Box<dyn TraceSink>> = cfg.trace.as_ref().map(|factory| factory());
            if cfg.audit {
                let specs: Vec<FlowAuditSpec> = cfg
                    .flows
                    .iter()
                    .map(|f| FlowAuditSpec {
                        mss: f.mss,
                        jitter_bound: f.audit_jitter_bound.or(f.jitter.bound()),
                    })
                    .collect();
                Some(Box::new(Auditor::new(specs, inner)))
            } else {
                inner
            }
        };
        let mut link = Bottleneck::new(cfg.link.rate, cfg.link.buffer_bytes);
        link.set_ecn_threshold(cfg.link.ecn_threshold);
        let end = Time::ZERO + cfg.duration;
        let mut net = Network {
            q: TimerWheel::new(),
            lane: VecDeque::new(),
            link,
            senders: Vec::new(),
            receivers: Vec::new(),
            jitters: Vec::new(),
            rm: Vec::new(),
            loss: Vec::new(),
            wake_armed: Vec::new(),
            rto: Vec::new(),
            stats: RunStats::default(),
            trace,
            workload: cfg.workload.map(WorkloadRun::new),
            sample_every: cfg.sample_every,
            end,
        };
        for f in cfg.flows {
            net.add_flow(f, false);
        }
        if let Some(run) = &net.workload {
            let first = run.spec.start;
            if run.spec.count > 0 && first < net.end {
                net.schedule(first, Ev::FlowArrival);
            }
        }
        net
    }

    /// Wire one flow into the network: endpoints, path elements, and its
    /// start-time wake. `dynamic` flows (workload arrivals) additionally
    /// announce themselves on the trace so the auditor can begin tracking
    /// them mid-run; static flows stay silent, keeping pre-workload trace
    /// digests byte-identical.
    // simlint: cold: runs once per flow arrival, not per packet event
    fn add_flow(&mut self, f: FlowConfig, dynamic: bool) -> FlowId {
        let fid = FlowId::from_index(self.senders.len());
        if dynamic {
            if let Some(tr) = self.trace.as_mut() {
                tr.event(
                    self.q.now(),
                    &Event::FlowArrive {
                        flow: fid,
                        mss: f.mss,
                        jitter_bound: f.audit_jitter_bound.or(f.jitter.bound()),
                        size: f.size,
                    },
                );
            }
        }
        let mut sender =
            Sender::new(fid, f.cca, f.mss, f.app_limit, f.start, self.sample_every);
        sender.set_transport(f.transport);
        sender.set_size(f.size);
        self.senders.push(sender);
        self.receivers.push(match f.transport {
            Transport::Reliable => Receiver::new(fid, f.ack_policy),
            Transport::Datagram => Receiver::new_datagram(fid, f.ack_policy),
        });
        self.jitters.push(JitterElement::new(f.jitter));
        self.rm.push(f.rm);
        self.loss.push(if f.loss_rate > 0.0 {
            Some((f.loss_rate, Xoshiro256::new(f.loss_seed)))
        } else {
            None
        });
        self.wake_armed.push(None);
        self.rto.push(RtoTimer::default());
        self.schedule(f.start, Ev::Wake(fid));
        fid
    }

    /// Direct access to a sender (warm starts, inspection).
    pub fn sender_mut(&mut self, flow: FlowId) -> &mut Sender<S> {
        &mut self.senders[flow.index()]
    }

    /// Direct access to the bottleneck (warm starts, inspection).
    pub fn link_mut(&mut self) -> &mut Bottleneck {
        &mut self.link
    }

    /// Flow id used for warm-start filler packets that belong to no sender.
    pub const PHANTOM: FlowId = FlowId::from_raw(u32::MAX);

    /// Pre-fill the bottleneck queue with `bytes` of phantom traffic before
    /// the run starts, creating an initial queueing delay of
    /// `bytes / C` — the proof's freedom to choose `d*(0)` (Theorem 1,
    /// step 3). Phantom packets drain normally but are discarded at the far
    /// side of the link.
    ///
    /// Call before [`Network::run`].
    pub fn prefill_queue(&mut self, bytes: u64, pkt_bytes: u64) {
        if bytes == 0 {
            return;
        }
        let n = bytes.div_ceil(pkt_bytes);
        let pkts: Vec<Packet> = (0..n)
            .map(|i| Packet {
                flow: Self::PHANTOM,
                seq: i,
                bytes: pkt_bytes,
                sent_at: Time::ZERO,
                delivered_at_send: 0,
                app_limited: false,
                retransmit: false,
                ecn: false,
            })
            .collect();
        if let Some(first) = self.link.warm_fill(self.q.now(), pkts) {
            self.schedule(first, Ev::Depart);
        }
    }

    /// Schedule `ev` at `at`: into the same-instant lane if `at` is the
    /// current instant, else onto the wheel.
    fn schedule(&mut self, at: Time, ev: Ev) {
        if at == self.q.now() {
            self.lane.push_back(Now::Ev(ev));
        } else {
            self.q.schedule_at(at, ev);
        }
    }

    /// Let a sender transmit everything it can right now; schedule its next
    /// wake if it is pacing-gated.
    // simlint: hot-root: the per-send path, reached once per emitted packet
    fn pump(&mut self, flow: FlowId) {
        let now = self.q.now();
        loop {
            match self.senders[flow.index()].try_emit(now) {
                Emit::Blocked => break,
                Emit::WaitUntil(t) => {
                    let stale = self.wake_armed[flow.index()].is_some_and(|armed| armed <= t);
                    if t > now && t < self.end && !stale {
                        self.wake_armed[flow.index()] = Some(t);
                        self.schedule(t, Ev::Wake(flow));
                    }
                    break;
                }
                Emit::Pkt(pkt) => {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.event(
                            now,
                            &Event::Send {
                                flow,
                                seq: pkt.seq,
                                bytes: pkt.bytes,
                                retransmit: pkt.retransmit,
                            },
                        );
                    }
                    self.arm_rto(flow);
                    self.inject(pkt);
                }
            }
        }
    }

    /// Push a packet into the path: loss element, then the bottleneck.
    fn inject(&mut self, pkt: Packet) {
        let now = self.q.now();
        if let Some((p, rng)) = &mut self.loss[pkt.flow.index()] {
            if rng.bernoulli(*p) {
                return; // vanished on the path; RTO/dupacks will notice
            }
        }
        let (flow, seq, bytes) = (pkt.flow, pkt.seq, pkt.bytes);
        match self.link.enqueue(now, pkt) {
            Enqueue::Dropped => {
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(now, &Event::Drop { flow, seq, bytes });
                }
            }
            Enqueue::Accepted(first_departure) => {
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(
                        now,
                        &Event::Enqueue {
                            flow,
                            seq,
                            bytes,
                            queued_bytes: self.link.queued_bytes(),
                        },
                    );
                }
                if let Some(t) = first_departure {
                    self.schedule(t, Ev::Depart);
                }
            }
        }
    }

    /// Follow a move of the sender's RTO deadline (see [`RtoTimer`]).
    fn arm_rto(&mut self, flow: FlowId) {
        if let Some(deadline) = self.senders[flow.index()].rto_deadline() {
            if deadline < self.end {
                self.rto[flow.index()].arm(&mut self.q, flow, deadline);
            }
        }
    }

    /// Report a just-finished flow's retirement on the trace (take-once:
    /// the sender yields the completion exactly one time).
    fn report_completion(&mut self, flow: FlowId) {
        let now = self.q.now();
        if self.senders[flow.index()].take_completion().is_some() && self.trace.is_some() {
            let acct = self.senders[flow.index()].accounting();
            if let Some(tr) = self.trace.as_mut() {
                tr.event(
                    now,
                    &Event::FlowComplete {
                        flow,
                        sent: acct.sent,
                        delivered: acct.delivered,
                        in_flight: acct.in_flight,
                        lost: acct.lost,
                        unresolved: acct.unresolved,
                        spurious_rtx: acct.spurious_rtx,
                    },
                );
            }
        }
    }

    /// Run to completion and collect results.
    pub fn run(self) -> SimResult {
        self.run_capture().0
    }

    /// Dispatch one wheel or lane event at `now`.
    fn dispatch(&mut self, now: Time, ev: Ev) {
        match ev {
            Ev::Wake(f) => {
                self.stats.wakes += 1;
                if self.wake_armed[f.index()] == Some(now) {
                    self.wake_armed[f.index()] = None;
                }
                self.pump(f);
            }
            Ev::FlowArrival => {
                self.stats.flow_arrivals += 1;
                let Some(run) = self.workload.as_mut() else {
                    return;
                };
                if run.spawned >= run.spec.count {
                    return;
                }
                let k = run.spawned;
                let size = run.draw_size();
                let fc = run.spec.flow_config(k, now, size);
                run.spawned += 1;
                let next = if run.spawned < run.spec.count {
                    Some(now + run.next_interarrival())
                } else {
                    None
                };
                self.add_flow(fc, true);
                if let Some(t) = next {
                    if t < self.end {
                        self.schedule(t, Ev::FlowArrival);
                    }
                }
            }
            Ev::Depart => {
                self.stats.departs += 1;
                let (pkt, next) = self.link.depart(now);
                if let Some(t) = next {
                    self.schedule(t, Ev::Depart);
                }
                let f = pkt.flow;
                if f == Self::PHANTOM {
                    return; // warm-start filler: occupies queue only
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(
                        now,
                        &Event::Dequeue {
                            flow: f,
                            seq: pkt.seq,
                            bytes: pkt.bytes,
                            queued_bytes: self.link.queued_bytes(),
                        },
                    );
                }
                let at_element = now + self.rm[f.index()];
                let release =
                    self.jitters[f.index()].release_time(at_element, pkt.sent_at, pkt.bytes);
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(
                        now,
                        &Event::JitterHold {
                            flow: f,
                            seq: pkt.seq,
                            arrive: at_element,
                            release,
                        },
                    );
                }
                self.schedule(release, Ev::DataArrive(pkt));
            }
            Ev::DataArrive(pkt) => {
                self.stats.data_arrivals += 1;
                let f = pkt.flow;
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(now, &Event::JitterRelease { flow: f, seq: pkt.seq });
                }
                let out = self.receivers[f.index()].on_data(now, pkt);
                if let Some(deadline) = out.arm_flush {
                    self.schedule(deadline, Ev::RxFlush(f, deadline));
                }
                // The ACK path has no delay (Rm is on the data path).
                self.lane.extend(out.acks.into_iter().map(Now::Ack));
            }
            Ev::RxFlush(f, deadline) => {
                self.stats.flushes += 1;
                let acks = self.receivers[f.index()].on_flush(deadline);
                self.lane.extend(acks.into_iter().map(Now::Ack));
            }
            Ev::Rto(f) => self.on_rto(now, f),
        }
    }

    /// An acknowledgement reaches its sender at `now`.
    fn on_ack(&mut self, now: Time, ack: Ack) {
        self.stats.acks += 1;
        let f = ack.flow;
        let rtt_before = self.senders[f.index()].metrics.rtt.len();
        self.senders[f.index()].process_ack(now, &ack);
        if self.trace.is_some() {
            let s = &self.senders[f.index()];
            // A new point in the RTT series means this ACK yielded a
            // (Karn-valid) sample.
            let rtt = if s.metrics.rtt.len() > rtt_before {
                s.metrics
                    .rtt
                    .last()
                    .map(|(_, secs)| Dur::from_secs_f64(secs))
            } else {
                None
            };
            let acct = s.accounting();
            let cwnd = s.cwnd();
            let pacing = s.cca().pacing_rate();
            let mut probes: simcore::InlineVec<(&'static str, f64), 4> =
                simcore::InlineVec::new();
            s.cca().internals(&mut |k, v| probes.push((k, v)));
            if let Some(tr) = self.trace.as_mut() {
                tr.event(
                    now,
                    &Event::Ack {
                        flow: f,
                        cum_seq: ack.cum_seq,
                        rtt,
                        sent: acct.sent,
                        delivered: acct.delivered,
                        in_flight: acct.in_flight,
                        lost: acct.lost,
                        unresolved: acct.unresolved,
                        spurious_rtx: acct.spurious_rtx,
                    },
                );
                tr.event(now, &Event::CwndUpdate { flow: f, cwnd, pacing });
                for (key, value) in probes {
                    tr.event(now, &Event::Probe { flow: f, key, value });
                }
            }
        }
        self.report_completion(f);
        self.arm_rto(f);
        self.pump(f);
    }

    /// Flow `f`'s earliest RTO entry pops at `now`. At the current deadline
    /// it is a timeout (or, if everything got acknowledged, a no-op that
    /// disarms the timer); otherwise it is superseded and no dispatch.
    fn on_rto(&mut self, now: Time, f: FlowId) {
        let deadline = self.senders[f.index()].rto_deadline();
        let popped = self.rto[f.index()].pop(&mut self.q, f, now, deadline);
        if let RtoPop::Superseded { refiled } = popped {
            self.stats.rto_superseded += 1;
            self.stats.rto_refiles += u64::from(refiled);
            return;
        }
        self.stats.rtos += 1;
        if self.senders[f.index()].on_rto(now) {
            if self.trace.is_some() {
                let cwnd = self.senders[f.index()].cwnd();
                let pacing = self.senders[f.index()].cca().pacing_rate();
                if let Some(tr) = self.trace.as_mut() {
                    tr.event(now, &Event::Rto { flow: f });
                    tr.event(now, &Event::CwndUpdate { flow: f, cwnd, pacing });
                }
            }
            // A timeout that writes off a datagram flow's last outstanding
            // packets can retire the flow.
            self.report_completion(f);
            self.arm_rto(f);
            self.pump(f);
        }
    }

    /// Run to completion, returning the results **and** each sender's final
    /// CCA state (cloned). The theorem constructions use the snapshots as
    /// the "converged initial states" of the 2-flow scenario (proof step 3).
    // simlint: hot-root: the event loop — everything it reaches runs per event
    pub fn run_capture(mut self) -> (SimResult, Vec<cca::BoxCca>) {
        // Each wheel batch holds every event due at its instant, in
        // scheduling order; the lane then runs what they scheduled for the
        // same instant, and what that schedules in turn, before the next
        // batch. The batch buffer grows once to the largest same-time
        // cohort and is reused for the rest of the run.
        // simlint: allow(hot-path-alloc): single reused batch buffer, amortized across the run
        let mut batch: Vec<Ev> = Vec::new();
        loop {
            let now = self.q.now();
            while let Some(work) = self.lane.pop_front() {
                self.stats.lane_dispatches += 1;
                match work {
                    Now::Ack(ack) => self.on_ack(now, ack),
                    Now::Ev(ev) => self.dispatch(now, ev),
                }
            }
            let Some(now) = self.q.pop_batch_at_or_before(self.end, &mut batch) else {
                break;
            };
            self.stats.wheel_pops += count_as_u64(batch.len());
            for ev in batch.drain(..) {
                self.dispatch(now, ev);
            }
        }
        let end = self.end;
        if self.trace.is_some() {
            let queued = count_as_u64(
                self.link.queued_packets().filter(|p| p.flow != Self::PHANTOM).count(),
            );
            if let Some(tr) = self.trace.as_mut() {
                tr.event(end, &Event::RunEnd { queued_pkts: queued });
                tr.finish(end);
            }
        }
        let utilization = self.link.utilization(end);
        // simlint: allow(hot-path-alloc): end-of-run result assembly, once per run
        let ccas: Vec<cca::BoxCca> = self.senders.iter().map(|s| s.cca_snapshot()).collect();
        let link = self.link;
        let jitters = self.jitters;
        let flows = self
            .senders
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let id = FlowId::from_index(i);
                FlowRecord {
                    id,
                    metrics: s.metrics,
                    drops: link.drops(id),
                    jitter_clamps: jitters[i].clamp_violations(),
                }
            })
            // simlint: allow(hot-path-alloc): end-of-run result assembly, once per run
            .collect();
        let result = SimResult {
            flows,
            utilization,
            end,
            events: self.stats.dispatches(),
            stats: self.stats,
        };
        (result, ccas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AckPolicy, FlowConfig, LinkConfig};
    use crate::jitter::Jitter;
    use cca::ConstCwnd;
    use simcore::units::Rate;

    fn one_flow(cwnd_pkts: u64, rate_mbps: f64, rm_ms: u64, secs: u64) -> SimResult {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(rate_mbps));
        let flow = FlowConfig::bulk(
            Box::new(ConstCwnd::new(cwnd_pkts * 1500)),
            Dur::from_millis(rm_ms),
        );
        Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(secs))).run()
    }

    #[test]
    fn const_cwnd_throughput_is_window_over_rtt() {
        // cwnd = 10 pkts, RTT = 50 ms (no queueing at this rate):
        // throughput = 10*1500*8/0.05 = 2.4 Mbit/s.
        let r = one_flow(10, 100.0, 50, 5);
        let tput = r.flows[0].throughput_at(r.end).mbps();
        assert!((tput - 2.4).abs() < 0.1, "tput={tput}");
    }

    #[test]
    fn rtt_equals_rm_plus_tx_when_unqueued() {
        let r = one_flow(2, 12.0, 50, 2);
        // 1500 B at 12 Mbit/s = 1 ms of transmission + 50 ms Rm.
        let (lo, hi) = r.flows[0]
            .rtt_range_in(Time::from_secs(1), r.end)
            .expect("an unqueued constant window samples RTTs continuously");
        assert!((lo - 0.051).abs() < 1e-6, "lo={lo}");
        assert!((hi - 0.051).abs() < 1e-6, "hi={hi}");
    }

    #[test]
    fn saturating_window_fills_link() {
        // BDP at 12 Mbit/s, 50 ms = 50 pkts; cwnd 100 saturates the link.
        let r = one_flow(100, 12.0, 50, 5);
        let tput = r.flows[0].throughput_at(r.end).mbps();
        assert!(tput > 11.0, "tput={tput}");
        // Standing queue of ~50 packets → RTT ≈ 100 ms.
        let mean = r.flows[0]
            .mean_rtt_in(Time::from_secs(2), r.end)
            .expect("a saturating flow samples RTTs past warmup");
        assert!((mean - 0.100).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn two_flows_share_fifo() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let mk = || {
            FlowConfig::bulk(Box::new(ConstCwnd::new(60 * 1500)), Dur::from_millis(50))
        };
        let r = Network::new(SimConfig::new(link, vec![mk(), mk()], Dur::from_secs(5))).run();
        // Identical windows → equal shares.
        let t0 = r.flows[0].throughput_at(r.end).mbps();
        let t1 = r.flows[1].throughput_at(r.end).mbps();
        assert!((t0 - t1).abs() / t0 < 0.05, "t0={t0} t1={t1}");
        assert!(t0 + t1 > 11.0);
    }

    #[test]
    fn random_loss_detected_and_recovered() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
            .with_loss(0.02, 123);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        assert!(m.lost_bytes > 0, "no loss detected");
        // The flow keeps making progress despite the loss.
        assert!(m.throughput_at(r.end).mbps() > 1.0);
        // Declared loss tracks the injected 2% but over-counts when an RTO
        // go-back-N retransmits packets the receiver already has (classic
        // SACK-less TCP behaviour).
        let measured = m.loss_fraction();
        assert!(measured > 0.01 && measured < 0.08, "loss={measured}");
    }

    #[test]
    fn finite_buffer_tail_drops() {
        let link = LinkConfig::new(Rate::from_mbps(6.0), 10 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(100 * 1500)), Dur::from_millis(40));
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        assert!(r.flows[0].drops > 0, "expected tail drops");
        // A constant window 10× the buffer is pathological — most of every
        // window drops, retransmissions drop too, and RTO backoff stretches
        // recovery exponentially — but the flow must keep making *some*
        // progress, and must rely on timeouts to do it.
        assert!(r.flows[0].total_delivered() >= 20 * 1500);
        assert!(r.flows[0].timeouts > 0);
    }

    #[test]
    fn jitter_increases_observed_rtt() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(2 * 1500)), Dur::from_millis(50))
            .with_jitter(Jitter::Random {
                max: Dur::from_millis(20),
                rng: Xoshiro256::new(5),
            });
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        let (lo, hi) = r.flows[0]
            .rtt_range_in(Time::from_secs(1), r.end)
            .expect("the jittered flow still delivers and samples RTTs");
        assert!(lo >= 0.051 - 1e-9);
        assert!(hi > 0.060, "hi={hi}");
        assert!(hi < 0.072, "hi={hi}");
    }

    #[test]
    fn quantized_acks_arrive_on_boundaries() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(20 * 1500)), Dur::from_millis(40))
            .with_ack_policy(AckPolicy::Quantized {
                period: Dur::from_millis(60),
            });
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(3))).run();
        // All RTT samples were taken at multiples of 60 ms.
        for &(t, _) in r.flows[0].rtt.points() {
            assert_eq!(t.as_nanos() % Dur::from_millis(60).as_nanos(), 0, "t={t}");
        }
        assert!(r.flows[0].total_delivered() > 0);
    }

    #[test]
    fn delayed_start_respected() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
            .with_start(Time::from_secs(2));
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(4))).run();
        let first = r.flows[0].delivered.first().map(|(t, _)| t).unwrap();
        assert!(first >= Time::from_secs(2));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
            let flow =
                FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
                    .with_loss(0.01, 9)
                    .with_jitter(Jitter::Random {
                        max: Dur::from_millis(5),
                        rng: Xoshiro256::new(3),
                    });
            let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(3))).run();
            (r.flows[0].total_delivered(), r.flows[0].sent_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn datagram_transport_survives_heavy_loss() {
        // A datagram flow with a big constant window and 5% loss keeps its
        // goodput near (1 − p)·window-rate: no go-back-N collapse.
        let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(100 * 1500)), Dur::from_millis(40))
            .with_transport(Transport::Datagram)
            .with_loss(0.05, 77);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        // Window rate = 100 pkts / 40 ms = 30 Mbit/s; goodput ≈ 28.5.
        let tput = m.throughput_at(r.end).mbps();
        assert!(tput > 25.0, "tput={tput}");
        // Measured loss tracks the injected rate.
        let frac = m.loss_fraction();
        assert!((frac - 0.05).abs() < 0.01, "loss={frac}");
        assert_eq!(m.retransmitted_bytes, 0);
    }

    #[test]
    fn audited_lossy_jittery_run_passes_and_traces() {
        // The auditor's six invariants must hold on a stressful scenario:
        // 2% loss (RTO go-back-N, spurious retransmits), 5 ms jitter, a
        // finite buffer (tail drops). A RingSink downstream of the auditor
        // verifies the full event stream reaches the configured sink.
        use simcore::trace::{RingSink, TraceSink};
        use std::sync::Arc;
        let ring = RingSink::new(64);
        let probe = ring.clone();
        let link = LinkConfig::new(Rate::from_mbps(12.0), 30 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
            .with_loss(0.02, 123)
            .with_jitter(Jitter::Random {
                max: Dur::from_millis(5),
                rng: Xoshiro256::new(11),
            });
        let cfg = SimConfig::new(link, vec![flow], Dur::from_secs(5))
            .with_trace(Arc::new(move || {
                Box::new(probe.clone()) as Box<dyn TraceSink>
            }))
            .with_audit(true);
        let r = Network::new(cfg).run();
        assert!(r.flows[0].total_delivered() > 0);
        let digest = ring.digest();
        for class in ["send", "enqueue", "dequeue", "jitter-hold", "ack", "cwnd", "run-end"] {
            assert!(digest.count(class) > 0, "no {class} events: {}", digest.render());
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        // NullSink tracing and auditing must be observationally inert.
        let run = |trace: bool| {
            let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
            let flow =
                FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
                    .with_loss(0.01, 9)
                    .with_jitter(Jitter::Random {
                        max: Dur::from_millis(5),
                        rng: Xoshiro256::new(3),
                    });
            let mut cfg = SimConfig::new(link, vec![flow], Dur::from_secs(3));
            if trace {
                cfg = cfg
                    .with_trace(std::sync::Arc::new(|| {
                        Box::new(simcore::trace::NullSink) as Box<dyn simcore::trace::TraceSink>
                    }))
                    .with_audit(true);
            }
            let r = Network::new(cfg).run();
            (
                r.flows[0].total_delivered(),
                r.flows[0].sent_bytes,
                r.flows[0].lost_bytes,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn conservation_sent_accounted() {
        let r = one_flow(20, 12.0, 40, 3);
        let m = &r.flows[0];
        // No loss path: delivered + in-flight-ish ≈ sent. Everything sent
        // minus at most a window is delivered.
        assert!(m.sent_bytes >= m.total_delivered());
        assert!(m.sent_bytes - m.total_delivered() <= 21 * 1500);
    }

    #[test]
    fn finite_flow_records_completion_time() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
            .with_size(30 * 1500);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        assert_eq!(m.total_delivered(), 30 * 1500);
        let fct = m.fct().expect("a 45 kB flow finishes well inside 10 s");
        // 3 windows of 10 packets at ~41 ms per round trip.
        assert!(fct >= Dur::from_millis(80), "fct={fct}");
        assert!(fct < Dur::from_millis(500), "fct={fct}");
        // Throughput is measured over the flow's lifetime, not the run.
        assert!(m.throughput_at(r.end).mbps() > 1.0);
    }

    #[test]
    fn workload_spawns_flows_on_schedule_and_retires_them() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
        let wl = Workload::new(
            3,
            ArrivalProcess::Fixed { interval: Dur::from_millis(200) },
            SizeDist::Fixed { bytes: 20 * 1500 },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        )
        .with_start(Time::from_millis(100));
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(5)).with_workload(wl);
        let r = Network::new(cfg).run();
        assert_eq!(r.flows.len(), 3);
        for (i, f) in r.flows.iter().enumerate() {
            let expect_start = Time::from_millis(100 + 200 * count_as_u64(i));
            assert_eq!(f.start, expect_start, "flow {i}");
            assert_eq!(f.total_delivered(), 20 * 1500, "flow {i}");
            assert!(f.fct().is_some(), "flow {i} never completed");
        }
        // All three finished: every FCT is well under the arrival spacing
        // plus a few RTTs.
        assert!(r.fcts().len() == 3);
    }

    #[test]
    fn workload_arrivals_past_the_end_are_dropped() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
        let wl = Workload::new(
            100,
            ArrivalProcess::Fixed { interval: Dur::from_millis(300) },
            SizeDist::Fixed { bytes: 1500 },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        );
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(1)).with_workload(wl);
        let r = Network::new(cfg).run();
        // Arrivals at 0, 300, 600, 900 ms fit inside the 1 s run.
        assert_eq!(r.flows.len(), 4);
    }

    #[test]
    fn audited_workload_with_loss_and_jitter_passes_and_traces_lifecycle() {
        // Mid-run arrivals and departures under loss and jitter must satisfy
        // every auditor invariant, including the flow-retire byte identity:
        // a retired flow's in-flight bytes all resolve before completion.
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        use simcore::trace::{RingSink, TraceSink};
        use std::sync::Arc;
        let ring = RingSink::new(64);
        let probe = ring.clone();
        let link = LinkConfig::new(Rate::from_mbps(24.0), 60 * 1500);
        let wl = Workload::new(
            20,
            ArrivalProcess::Poisson { mean: Dur::from_millis(120), seed: 21 },
            SizeDist::Pareto {
                min_bytes: 12_000,
                alpha: 1.3,
                cap_bytes: 150_000,
                seed: 22,
            },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(30),
        )
        .with_jitter(Dur::from_millis(4), 23)
        .with_loss(0.01, 24);
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(8))
            .with_workload(wl)
            .with_trace(Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
            .with_audit(true);
        let r = Network::new(cfg).run();
        assert_eq!(r.flows.len(), 20);
        let digest = ring.digest();
        assert_eq!(digest.count("flow-arrive"), 20);
        let completed = r.fcts().len();
        assert!(completed >= 15, "only {completed}/20 flows completed");
        assert_eq!(digest.count("flow-complete"), count_as_u64(completed));
    }

    #[test]
    fn workload_runs_are_deterministic() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let run = || {
            let link = LinkConfig::new(Rate::from_mbps(24.0), 60 * 1500);
            let wl = Workload::new(
                12,
                ArrivalProcess::Poisson { mean: Dur::from_millis(100), seed: 5 },
                SizeDist::Pareto {
                    min_bytes: 10_000,
                    alpha: 1.2,
                    cap_bytes: 200_000,
                    seed: 6,
                },
                Box::new(ConstCwnd::ten_packets()),
                Dur::from_millis(25),
            )
            .with_loss(0.02, 7);
            let cfg = SimConfig::new(link, vec![], Dur::from_secs(6)).with_workload(wl);
            let r = Network::new(cfg).run();
            r.flows
                .iter()
                .map(|f| (f.start, f.completed, f.sent_bytes, f.total_delivered()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// One RTO script: at each step's time the flow's deadline moves (or
    /// clears), then a marker is filed for every later instant in
    /// `instants`.
    /// Markers pin the timeout's seq: it must pop between the markers
    /// filed just before and just after the reservation it fires under.
    /// A timeout disarms the timer. Returns the dispatch order, `None`
    /// standing for the timeout.
    fn rto_script(
        lazy: bool,
        steps: &[(u64, Option<u64>)],
        instants: &[u64],
    ) -> Vec<(Time, Option<u32>)> {
        #[derive(Debug)]
        enum Eager {
            Timer(Time),
            Marker(u32),
        }
        let ms = Time::from_millis;
        let flow = FlowId::from_index(0);
        let mut lazy_q: TimerWheel<Ev> = TimerWheel::new();
        let mut eager_q: TimerWheel<Eager> = TimerWheel::new();
        let mut timer = RtoTimer::default();
        let mut eager_last: Option<Time> = None;
        let mut deadline: Option<Time> = None;
        let mut markers = 0u32;
        let mut out = Vec::new();
        let pop_until = |limit: Time,
                             lazy_q: &mut TimerWheel<Ev>,
                             eager_q: &mut TimerWheel<Eager>,
                             timer: &mut RtoTimer,
                             deadline: &mut Option<Time>,
                             out: &mut Vec<(Time, Option<u32>)>| {
            if lazy {
                while let Some((now, ev)) = lazy_q.pop_at_or_before(limit) {
                    match ev {
                        Ev::Rto(f) => {
                            if timer.pop(lazy_q, f, now, *deadline) == RtoPop::Due {
                                *deadline = None;
                                out.push((now, None));
                            }
                        }
                        Ev::Wake(k) => out.push((now, Some(k.index() as u32))),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            } else {
                while let Some((now, ev)) = eager_q.pop_at_or_before(limit) {
                    match ev {
                        Eager::Timer(tag) => {
                            if *deadline == Some(tag) {
                                *deadline = None;
                                out.push((now, None));
                            }
                        }
                        Eager::Marker(k) => out.push((now, Some(k))),
                    }
                }
            }
        };
        for &(at, to) in steps {
            if at > 0 {
                let before = ms(at) - Dur(1);
                pop_until(before, &mut lazy_q, &mut eager_q, &mut timer, &mut deadline, &mut out);
            }
            deadline = to.map(ms);
            if let Some(d) = deadline {
                if lazy {
                    timer.arm(&mut lazy_q, flow, d);
                } else if eager_last != Some(d) {
                    eager_last = Some(d);
                    eager_q.schedule_at(d, Eager::Timer(d));
                }
            }
            for &i in instants.iter().filter(|&&i| i > at) {
                if lazy {
                    lazy_q.schedule_at(ms(i), Ev::Wake(FlowId::from_index(markers as usize)));
                } else {
                    eager_q.schedule_at(ms(i), Eager::Marker(markers));
                }
                markers += 1;
            }
        }
        pop_until(Time::MAX, &mut lazy_q, &mut eager_q, &mut timer, &mut deadline, &mut out);
        out
    }

    #[test]
    fn lazy_rto_fires_where_eager_arming_did() {
        let instants = [150, 200, 220, 300];
        let scripts: [&[(u64, Option<u64>)]; 6] = [
            // Forward moves: only the first is filed; it re-files at 220.
            &[(0, Some(150)), (10, Some(200)), (20, Some(220))],
            // Backward: the earlier deadline gets its own entry.
            &[(0, Some(200)), (10, Some(150))],
            // Backward, then forward past the first entry.
            &[(0, Some(200)), (10, Some(150)), (20, Some(220))],
            // Back to an instant whose entry is still on the wheel: it
            // fires under the first reservation's seq, as eager arming did.
            &[(0, Some(300)), (10, Some(200)), (20, Some(300))],
            // Cleared, then re-armed; and a deadline that moves after the
            // timeout.
            &[(0, Some(150)), (10, None), (20, Some(220)), (230, Some(300))],
            // Reserved behind the live entry, cleared before it pops (so it
            // does not re-file), then re-armed to the reserved instant: the
            // entry is filed under the seq eager arming filed it under.
            &[(0, Some(150)), (10, Some(300)), (20, None), (200, Some(300))],
        ];
        for steps in scripts {
            let eager = rto_script(false, steps, &instants);
            let lazy = rto_script(true, steps, &instants);
            assert!(eager.iter().any(|&(_, m)| m.is_none()), "{steps:?}: no timeout");
            assert_eq!(lazy, eager, "{steps:?}");
        }
    }

    #[test]
    fn lazy_rto_returning_to_an_unfiled_instant_fires_under_the_later_seq() {
        // 300 is reserved at 10 ms behind the live 150 entry (not filed),
        // left, and reserved again at 30 ms. The 150 entry re-files at 300
        // under the later seq: same instant, but behind the markers filed
        // for 300 between the two reservations (the case `RtoTimer`
        // documents). Eager arming fired under the first.
        let steps: &[(u64, Option<u64>)] =
            &[(0, Some(150)), (10, Some(300)), (20, Some(310)), (30, Some(300))];
        let eager = rto_script(false, steps, &[300]);
        let lazy = rto_script(true, steps, &[300]);
        let at = |v: &[(Time, Option<u32>)]| v.iter().position(|&(_, m)| m.is_none());
        let (e, l) = (at(&eager).expect("eager timeout"), at(&lazy).expect("lazy timeout"));
        assert_eq!(eager[e].0, Time::from_millis(300));
        assert_eq!(lazy[l].0, Time::from_millis(300));
        // Markers 1 and 2 were filed after the first reservation and
        // before the second.
        let mut moved = eager.clone();
        let rto = moved.remove(e);
        moved.insert(e + 2, rto);
        assert_eq!(lazy, moved);
    }

    #[test]
    fn wheel_payload_is_at_most_a_packet_and_a_tag() {
        // ACKs travel in the lane, so the largest wheel payload is a data
        // packet.
        assert!(std::mem::size_of::<Ev>() <= std::mem::size_of::<Packet>() + 8);
    }

    #[test]
    fn run_stats_account_for_every_pop() {
        // Loss, jitter and quantized ACKs: timeouts, superseded entries,
        // re-files and lane ACKs all occur.
        let link = LinkConfig::new(Rate::from_mbps(12.0), 20 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(60 * 1500)), Dur::from_millis(40))
            .with_loss(0.03, 5)
            .with_ack_policy(AckPolicy::Quantized {
                period: Dur::from_millis(5),
            });
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        let s = r.stats;
        assert_eq!(r.events, s.dispatches());
        assert_eq!(s.wheel_pops + s.lane_dispatches, s.dispatches() + s.rto_superseded);
        assert!(s.rtos >= r.flows[0].timeouts && r.flows[0].timeouts > 0, "{s:?}");
        assert!(s.rto_superseded > 0 && s.rto_refiles > 0, "{s:?}");
        // Every ACK goes through the lane, never the wheel.
        assert!(s.lane_dispatches >= s.acks && s.acks > 0, "{s:?}");
    }
}
