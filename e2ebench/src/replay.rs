//! Layer replays. Each replay feeds one layer's recorded call stream to a
//! fresh instance of that layer, times the whole replay with one clock
//! pair (per-call clocks would cost more than many of the calls), and
//! compares every output with the recording. A replay that diverges
//! returns `Err` and its layer's numbers are withheld.
//!
//! The link, jitter, receiver and event-wheel streams are rebuilt from the
//! in-memory trace; the packet-store and CCA streams come from the
//! recorders in [`crate::record`].

use crate::record::{CcaInput, CcaLog, Recording, StoreCall};
use crate::report::now;
use netsim::jitter::JitterElement;
use netsim::link::{Bottleneck, Enqueue};
use netsim::packet::Packet;
use netsim::receiver::Receiver;
use netsim::{FlowConfig, FlowId, PktStore, SeqStore, SimConfig, Transport};
use simcore::trace::Event;
use simcore::units::{count_as_u64, Time};
use simcore::wheel::TimerWheel;
use std::collections::VecDeque;
use std::time::Instant;

/// A replay that reproduced its recording: how many operations it issued
/// and how long they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replayed {
    pub ops: u64,
    pub ns: u64,
}

pub type Outcome = Result<Replayed, String>;

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Every flow's configuration, in flow-id order: the static flows, then
/// one per `FlowArrive` built exactly as the workload spawned it.
pub fn flow_configs(cfg: &SimConfig, trace: &[(Time, Event)]) -> Result<Vec<FlowConfig>, String> {
    let mut flows = cfg.flows.clone();
    for (t, e) in trace {
        if let Event::FlowArrive { flow, size, .. } = e {
            let w = cfg
                .workload
                .as_ref()
                .ok_or("flow-arrive without a workload")?;
            let k = count_as_u64(flows.len() - cfg.flows.len());
            if flow.index() != flows.len() {
                return Err(format!("flow-arrive for {} out of order", flow.index()));
            }
            flows.push(w.flow_config(k, *t, size.unwrap_or(1)));
        }
    }
    Ok(flows)
}

/// One copy of a packet on the path, as the trace describes it.
#[derive(Clone, Copy, Debug)]
struct Copy {
    flow: FlowId,
    seq: u64,
    bytes: u64,
    sent_at: Time,
    retransmit: bool,
}

impl Copy {
    fn packet(self) -> Packet {
        Packet {
            flow: self.flow,
            seq: self.seq,
            bytes: self.bytes,
            sent_at: self.sent_at,
            delivered_at_send: 0,
            app_limited: false,
            retransmit: self.retransmit,
            ecn: false,
        }
    }
}

enum LinkOp {
    /// Offer a packet; `Some(backlog)` if the trace shows it accepted.
    Offer(Time, Packet, Option<u64>),
    /// A departure and the backlog left behind.
    Depart(Time, FlowId, u64, u64),
}

/// The jitter element's decision for one packet.
struct Hold {
    flow: usize,
    arrive: Time,
    sent_at: Time,
    bytes: u64,
    release: Time,
}

/// What a dispatched event was, for matching wheel pops to the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Depart,
    Arrive,
    Ack,
    FlowArrival,
    Rto,
}

type Label = (Time, Kind, usize, u64);

/// The per-layer call streams implied by one trace.
pub struct PathStream {
    link: Vec<LinkOp>,
    holds: Vec<Hold>,
    arrivals: Vec<(Time, Packet)>,
    /// Cumulative sequence of each ACK the senders processed, per flow.
    acks: Vec<VecDeque<Option<u64>>>,
    /// `(scheduled at, fires at, label)` in scheduling order.
    schedules: Vec<(Time, Time, Label)>,
    /// Every traced dispatch: the events the wheel must pop.
    dispatched: Vec<Label>,
    /// Largest backlog after any enqueue, bytes.
    pub queue_hwm: u64,
    pub offered: u64,
    pub dropped: u64,
}

fn at_mut<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl PathStream {
    /// Rebuild the streams from a trace. Fails if the trace is not
    /// self-consistent (a dequeue of a packet that was never enqueued, a
    /// release of a packet that was never held, …).
    pub fn from_trace(trace: &[(Time, Event)]) -> Result<PathStream, String> {
        let dequeues: Vec<Time> = trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::Dequeue { .. }))
            .map(|(t, _)| *t)
            .collect();
        let arrivals_at: Vec<Time> = trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::FlowArrive { .. }))
            .map(|(t, _)| *t)
            .collect();
        let mut s = PathStream {
            link: Vec::new(),
            holds: Vec::new(),
            arrivals: Vec::new(),
            acks: Vec::new(),
            schedules: Vec::new(),
            dispatched: Vec::new(),
            queue_hwm: 0,
            offered: 0,
            dropped: 0,
        };
        if let Some(&first) = arrivals_at.first() {
            s.schedules
                .push((Time::ZERO, first, (first, Kind::FlowArrival, 0, 0)));
        }
        let mut last_send: Option<Copy> = None;
        let mut fifo: VecDeque<Copy> = VecDeque::new();
        let mut leaving: Option<Copy> = None;
        let mut held: Vec<VecDeque<Copy>> = Vec::new();
        let (mut accepted, mut departed, mut arrived) = (0usize, 0usize, 0usize);
        let sent = |last: &Option<Copy>, flow: FlowId, seq: u64, t: Time| {
            last.filter(|c| c.flow == flow && c.seq == seq)
                .ok_or_else(|| {
                    format!(
                        "{t}: flow {} seq {seq} offered to the link without a send",
                        flow.index()
                    )
                })
        };
        for &(t, ref e) in trace {
            match *e {
                Event::Send {
                    flow,
                    seq,
                    bytes,
                    retransmit,
                } => {
                    last_send = Some(Copy {
                        flow,
                        seq,
                        bytes,
                        sent_at: t,
                        retransmit,
                    });
                }
                Event::Enqueue {
                    flow,
                    seq,
                    bytes,
                    queued_bytes,
                } => {
                    let c = sent(&last_send, flow, seq, t)?;
                    s.link
                        .push(LinkOp::Offer(t, c.packet(), Some(queued_bytes)));
                    s.queue_hwm = s.queue_hwm.max(queued_bytes);
                    s.offered += 1;
                    fifo.push_back(c);
                    if queued_bytes == bytes {
                        // The link was idle: this enqueue schedules the
                        // packet's own departure.
                        if let Some(&fire) = dequeues.get(accepted) {
                            s.schedules
                                .push((t, fire, (fire, Kind::Depart, flow.index(), seq)));
                        }
                    }
                    accepted += 1;
                }
                Event::Drop { flow, seq, .. } => {
                    let c = sent(&last_send, flow, seq, t)?;
                    s.link.push(LinkOp::Offer(t, c.packet(), None));
                    s.offered += 1;
                    s.dropped += 1;
                }
                Event::Dequeue {
                    flow,
                    seq,
                    queued_bytes,
                    ..
                } => {
                    let c = fifo
                        .pop_front()
                        .filter(|c| c.flow == flow && c.seq == seq)
                        .ok_or_else(|| {
                            format!(
                                "{t}: dequeue of flow {} seq {seq} is not the queue head",
                                flow.index()
                            )
                        })?;
                    s.link.push(LinkOp::Depart(t, flow, seq, queued_bytes));
                    s.dispatched.push((t, Kind::Depart, flow.index(), seq));
                    if let (Some(next), Some(&fire)) = (fifo.front(), dequeues.get(departed + 1)) {
                        s.schedules.push((
                            t,
                            fire,
                            (fire, Kind::Depart, next.flow.index(), next.seq),
                        ));
                    }
                    departed += 1;
                    leaving = Some(c);
                }
                Event::JitterHold {
                    flow,
                    seq,
                    arrive,
                    release,
                } => {
                    let c = leaving
                        .take()
                        .filter(|c| c.flow == flow && c.seq == seq)
                        .ok_or_else(|| {
                            format!(
                                "{t}: jitter hold of flow {} seq {seq} without its dequeue",
                                flow.index()
                            )
                        })?;
                    s.holds.push(Hold {
                        flow: flow.index(),
                        arrive,
                        sent_at: c.sent_at,
                        bytes: c.bytes,
                        release,
                    });
                    at_mut(&mut held, flow.index()).push_back(c);
                    s.schedules
                        .push((t, release, (release, Kind::Arrive, flow.index(), seq)));
                }
                Event::JitterRelease { flow, seq } => {
                    let c = at_mut(&mut held, flow.index())
                        .pop_front()
                        .filter(|c| c.seq == seq)
                        .ok_or_else(|| {
                            format!(
                                "{t}: release of flow {} seq {seq} that is not held",
                                flow.index()
                            )
                        })?;
                    s.arrivals.push((t, c.packet()));
                    s.dispatched.push((t, Kind::Arrive, flow.index(), seq));
                }
                Event::Ack { flow, cum_seq, .. } => {
                    at_mut(&mut s.acks, flow.index()).push_back(cum_seq);
                    let label = (t, Kind::Ack, flow.index(), 0);
                    s.schedules.push((t, t, label));
                    s.dispatched.push(label);
                }
                Event::FlowArrive { .. } => {
                    s.dispatched.push((t, Kind::FlowArrival, 0, 0));
                    arrived += 1;
                    if let Some(&next) = arrivals_at.get(arrived) {
                        s.schedules.push((t, next, (next, Kind::FlowArrival, 0, 0)));
                    }
                }
                Event::Rto { flow } => {
                    let label = (t, Kind::Rto, flow.index(), 0);
                    s.schedules.push((t, t, label));
                    s.dispatched.push(label);
                }
                Event::CwndUpdate { .. }
                | Event::Probe { .. }
                | Event::FlowComplete { .. }
                | Event::RunEnd { .. } => {}
            }
        }
        Ok(s)
    }

    /// Traced events that have a dispatched-event counterpart (departures,
    /// arrivals, ACKs, flow arrivals, effective timeouts).
    pub fn dispatched(&self) -> u64 {
        count_as_u64(self.dispatched.len())
    }

    /// Data packets that reached a receiver.
    pub fn delivered(&self) -> u64 {
        count_as_u64(self.arrivals.len())
    }

    /// Replay the offers and departures against a fresh [`Bottleneck`];
    /// every verdict, backlog and departing packet must match.
    pub fn replay_link(&self, cfg: &SimConfig) -> Outcome {
        let mut link = Bottleneck::new(cfg.link.rate, cfg.link.buffer_bytes);
        link.set_ecn_threshold(cfg.link.ecn_threshold);
        let t0 = now();
        for (i, op) in self.link.iter().enumerate() {
            match *op {
                LinkOp::Offer(t, pkt, want) => {
                    let got = match link.enqueue(t, pkt) {
                        Enqueue::Dropped => None,
                        Enqueue::Accepted(_) => Some(link.queued_bytes()),
                    };
                    if got != want {
                        return Err(format!(
                            "link op {i}: offer verdict {got:?}, recorded {want:?}"
                        ));
                    }
                }
                LinkOp::Depart(t, flow, seq, backlog) => {
                    if link.queue_len() == 0 {
                        return Err(format!("link op {i}: departure from an empty queue"));
                    }
                    let (pkt, _) = link.depart(t);
                    if pkt.flow != flow || pkt.seq != seq || link.queued_bytes() != backlog {
                        return Err(format!(
                            "link op {i}: departed flow {} seq {} leaving {}, recorded flow {} seq {seq} leaving {backlog}",
                            pkt.flow.index(),
                            pkt.seq,
                            link.queued_bytes(),
                            flow.index()
                        ));
                    }
                }
            }
        }
        Ok(Replayed {
            ops: count_as_u64(self.link.len()),
            ns: elapsed_ns(t0),
        })
    }

    /// Replay every hold decision against fresh per-flow
    /// [`JitterElement`]s; every release time must match.
    pub fn replay_jitter(&self, flows: &[FlowConfig]) -> Outcome {
        let mut elements: Vec<JitterElement> = flows
            .iter()
            .map(|f| JitterElement::new(f.jitter.clone()))
            .collect();
        let t0 = now();
        for (i, h) in self.holds.iter().enumerate() {
            let el = elements
                .get_mut(h.flow)
                .ok_or_else(|| format!("jitter op {i}: unknown flow {}", h.flow))?;
            let got = el.release_time(h.arrive, h.sent_at, h.bytes);
            if got != h.release {
                return Err(format!(
                    "jitter op {i}: released at {got}, recorded {}",
                    h.release
                ));
            }
        }
        Ok(Replayed {
            ops: count_as_u64(self.holds.len()),
            ns: elapsed_ns(t0),
        })
    }

    /// Replay every data arrival against fresh per-flow [`Receiver`]s.
    /// The ACKs they emit must be exactly the ACKs the senders processed,
    /// in order. Returns the replay and the number of ACKs emitted.
    pub fn replay_receiver(
        &self,
        flows: &[FlowConfig],
        end: Time,
    ) -> Result<(Replayed, u64), String> {
        let mut rx: Vec<Receiver> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| match f.transport {
                Transport::Reliable => Receiver::new(FlowId::from_index(i), f.ack_policy),
                Transport::Datagram => Receiver::new_datagram(FlowId::from_index(i), f.ack_policy),
            })
            .collect();
        let mut want = self.acks.clone();
        let mut flushes: Vec<(Time, usize)> = Vec::new();
        let mut acks = 0u64;
        let mut check = |flow: usize, cum: Option<u64>, at: Time| -> Result<(), String> {
            acks += 1;
            match want.get_mut(flow).and_then(VecDeque::pop_front) {
                Some(w) if w == cum => Ok(()),
                other => Err(format!(
                    "receiver at {at}: flow {flow} acked {cum:?}, recorded {other:?}"
                )),
            }
        };
        let t0 = now();
        for &(t, pkt) in &self.arrivals {
            while let Some(k) = flushes.iter().position(|&(d, _)| d < t) {
                let (d, f) = flushes.swap_remove(k);
                for a in rx[f].on_flush(d) {
                    check(f, a.cum_seq, d)?;
                }
            }
            let f = pkt.flow.index();
            let r = rx
                .get_mut(f)
                .ok_or_else(|| format!("receiver: unknown flow {f}"))?;
            let out = r.on_data(t, pkt);
            for a in out.acks {
                check(f, a.cum_seq, t)?;
            }
            if let Some(d) = out.arm_flush {
                flushes.push((d, f));
            }
        }
        flushes.sort_unstable();
        for (d, f) in flushes {
            if d <= end {
                for a in rx[f].on_flush(d) {
                    check(f, a.cum_seq, d)?;
                }
            }
        }
        let ns = elapsed_ns(t0);
        if let Some((f, left)) = want.iter().enumerate().find(|(_, q)| !q.is_empty()) {
            return Err(format!(
                "receiver: flow {f} never emitted {} recorded ACK(s)",
                left.len()
            ));
        }
        Ok((
            Replayed {
                ops: count_as_u64(self.arrivals.len()),
                ns,
            },
            acks,
        ))
    }

    /// Replay the trace-implied schedule/pop stream against a fresh
    /// [`TimerWheel`]: each traced dispatch is scheduled at the time its
    /// cause was traced and popped with `pop_batch_at_or_before`. Pops must
    /// come out in (time, scheduling) order, and at every instant the wheel
    /// must pop exactly the events the trace shows dispatched.
    pub fn replay_wheel(&self, end: Time) -> Outcome {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut popped: Vec<u32> = Vec::with_capacity(self.schedules.len());
        let mut batch: Vec<u32> = Vec::new();
        let t0 = now();
        for (i, &(at, fire, _)) in self.schedules.iter().enumerate() {
            while wheel.peek_time().is_some_and(|next| next < at) {
                wheel.pop_batch_at_or_before(Time(at.0 - 1), &mut batch);
                popped.append(&mut batch);
            }
            wheel.schedule_at(fire, i as u32);
        }
        while wheel.pop_batch_at_or_before(end, &mut batch).is_some() {
            popped.append(&mut batch);
        }
        let ns = elapsed_ns(t0);
        let ops = count_as_u64(self.schedules.len() + popped.len());
        let fire = |id: &u32| self.schedules[*id as usize].1;
        if popped
            .windows(2)
            .any(|w| (fire(&w[0]), w[0]) > (fire(&w[1]), w[1]))
        {
            return Err("wheel: pops out of (time, scheduling) order".into());
        }
        let mut got: Vec<Label> = popped
            .iter()
            .map(|&id| self.schedules[id as usize].2)
            .collect();
        let mut want = self.dispatched.clone();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            let first = got
                .iter()
                .zip(&want)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            return Err(format!(
                "wheel: popped {} events, trace dispatched {}; first difference at {first}: {:?} vs {:?}",
                got.len(),
                want.len(),
                got.get(first),
                want.get(first)
            ));
        }
        Ok(Replayed { ops, ns })
    }
}

/// Replay each recorded [`SeqStore`] call stream on a fresh [`PktStore`];
/// every return value must match the recording.
pub fn replay_pktstore(logs: &[Vec<StoreCall>]) -> Outcome {
    let mut ns = 0u64;
    let mut ops = 0u64;
    let mut holes: Vec<(u64, Time, u64)> = Vec::new();
    let mut seqs: Vec<u64> = Vec::new();
    for (flow, log) in logs.iter().enumerate() {
        let mut s = PktStore::default();
        let t0 = now();
        for (i, call) in log.iter().enumerate() {
            let ok = match call {
                StoreCall::Insert(seq, pkt) => {
                    s.insert(*seq, *pkt);
                    true
                }
                StoreCall::Get(seq, want) => s.get(*seq) == *want,
                StoreCall::Remove(seq, want) => s.remove(*seq) == *want,
                StoreCall::IsOutstandingEmpty(want) => s.is_outstanding_empty() == *want,
                StoreCall::OutstandingBytes(want) => s.outstanding_bytes() == *want,
                StoreCall::UnresolvedBytes(want) => s.unresolved_bytes() == *want,
                StoreCall::SackRange(lo, hi) => {
                    s.sack_range(*lo, *hi);
                    true
                }
                StoreCall::MaxSacked(want) => s.max_sacked() == *want,
                StoreCall::AdvanceCum(cum) => {
                    s.advance_cum(*cum);
                    true
                }
                StoreCall::ClearRetxDone => {
                    s.clear_retx_done();
                    true
                }
                StoreCall::CollectHoles(limit, want) => {
                    holes.clear();
                    s.collect_holes(*limit, &mut holes);
                    holes == *want
                }
                StoreCall::MarkHoleRetx(seq) => {
                    s.mark_hole_retx(*seq);
                    true
                }
                StoreCall::CollectBelow(seq, want) => {
                    holes.clear();
                    s.collect_below(*seq, &mut holes);
                    holes == *want
                }
                StoreCall::RtoReset(want) => {
                    seqs.clear();
                    s.rto_reset(&mut seqs);
                    seqs == *want
                }
            };
            if !ok {
                return Err(format!(
                    "pktstore flow {flow} call {i}: {call:?} returned something else"
                ));
            }
        }
        ns += elapsed_ns(t0);
        ops += count_as_u64(log.len());
    }
    Ok(Replayed { ops, ns })
}

/// Replay each recorded CCA call stream into a fresh copy of the CCA as it
/// was when recording began; `cwnd` and the pacing rate must match the
/// recording after every call.
pub fn replay_cca(logs: &[CcaLog]) -> Outcome {
    let mut ns = 0u64;
    let mut ops = 0u64;
    for (n, log) in logs.iter().enumerate() {
        let mut c = log.initial.clone_box();
        let t0 = now();
        for (i, (input, want)) in log.calls.iter().enumerate() {
            match *input {
                CcaInput::Ack(ev) => c.on_ack(&ev),
                CcaInput::Loss(ev) => c.on_loss(&ev),
                CcaInput::Send {
                    now,
                    bytes,
                    in_flight,
                } => c.on_send(now, bytes, in_flight),
            }
            let got = (c.cwnd(), c.pacing_rate());
            if got != *want {
                return Err(format!(
                    "cca {n} ({}) call {i}: outputs {got:?}, recorded {want:?}",
                    c.name()
                ));
            }
        }
        ns += elapsed_ns(t0);
        ops += count_as_u64(log.calls.len());
    }
    Ok(Replayed { ops, ns })
}

/// Every layer replay of one recording.
pub struct LayerReplays {
    /// The trace-implied streams (and their counts).
    pub path: PathStream,
    pub wheel: Outcome,
    pub link: Outcome,
    pub jitter: Outcome,
    pub receiver: Outcome,
    /// ACKs the replayed receivers emitted.
    pub acks: u64,
    pub pktstore: Outcome,
    pub cca: Outcome,
}

impl LayerReplays {
    /// `(layer, outcome)` for every layer.
    pub fn layers(&self) -> [(&'static str, &Outcome); 6] {
        [
            ("wheel", &self.wheel),
            ("link", &self.link),
            ("jitter", &self.jitter),
            ("receiver", &self.receiver),
            ("pktstore", &self.pktstore),
            ("cca", &self.cca),
        ]
    }
}

/// Replay every layer of `rec` (recorded from `cfg`). Fails outright only
/// when the trace itself is inconsistent.
pub fn replay_all(cfg: &SimConfig, rec: &Recording) -> Result<LayerReplays, String> {
    let path = PathStream::from_trace(&rec.trace)?;
    let flows = flow_configs(cfg, &rec.trace)?;
    let receiver = path.replay_receiver(&flows, rec.end);
    Ok(LayerReplays {
        wheel: path.replay_wheel(rec.end),
        link: path.replay_link(cfg),
        jitter: path.replay_jitter(&flows),
        acks: receiver.as_ref().map_or(0, |r| r.1),
        receiver: receiver.map(|r| r.0),
        pktstore: replay_pktstore(&rec.store),
        cca: replay_cca(&rec.cca),
        path,
    })
}
