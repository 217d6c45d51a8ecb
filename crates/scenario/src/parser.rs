//! Recursive-descent parser for the `.scn` scenario language.
//!
//! Grammar (whitespace-insensitive; `#` comments; see DESIGN.md §10):
//!
//! ```text
//! scenario     ::= "scenario" STRING "{" item* "}"
//! item         ::= link | "duration" dur | "sample-every" dur | flow | workload
//! link         ::= "link" "{" ("rate" rate | "buffer" buffer | "ecn" bytes)* "}"
//! buffer       ::= "ample" | bytes | "bdp" number dur
//! flow         ::= "flow" IDENT "{" field* "}"
//! field        ::= "cca" IDENT | "rtt" dur
//!                | "jitter" dur "seed" int | "loss" number "seed" int
//!                | "transport" ("reliable" | "datagram")
//!                | "start" dur | "mss" int | "audit-jitter-bound" dur
//! workload     ::= "workload" "{" wfield* "}"
//! wfield       ::= "flows" int | "arrivals" arrivals | "sizes" sizes
//!                | "cca" IDENT | "rtt" dur
//!                | "jitter" dur "seed" int | "loss" number "seed" int
//!                | "start" dur | "mss" int
//! arrivals     ::= "every" dur | "poisson" dur "seed" int
//! sizes        ::= "fixed" bytes | "pareto" bytes number bytes "seed" int
//! dur          ::= NUMBER with unit s | ms | us | ns
//! rate         ::= NUMBER with unit gbps | mbps | kbps
//! bytes        ::= NUMBER with unit B
//! ```
//!
//! Required: one `link` block (with `rate` and `buffer`), a `duration`,
//! and at least one flow — a `flow` block or a `workload` block (flows
//! need `cca` and `rtt`; a workload needs `flows`, `arrivals`, `sizes`,
//! `cca` and `rtt`). Everything else is optional. The buffer, sized as
//! `compile` sizes it, must hold the largest packet any flow sends (`mss`,
//! default 1500 B). Errors are fail-fast and carry a 1-based line/column
//! plus a *stable* message — the negative-parse suite pins the exact
//! wording.

use crate::ast::{
    ArrivalSpec, Buffer, CcaId, Flow, JitterSpec, Link, LossSpec, Scenario, SizeSpec, WorkloadSpec,
    ALL_CCAS,
};
use crate::compile::link_config;
use crate::lexer::{lex, ParseError, TokKind, Token};
use netsim::DEFAULT_MSS;
use simcore::units::Dur;

/// Parse one `.scn` source into a [`Scenario`].
pub fn parse(src: &str) -> Result<Scenario, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let scenario = p.scenario()?;
    let t = p.peek().clone();
    if t.kind != TokKind::Eof {
        return Err(ParseError::at(&t, format!("expected end of input, got `{}`", t.text)));
    }
    Ok(scenario)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect_kind(&mut self, kind: TokKind, what: &str) -> Result<Token, ParseError> {
        let t = self.advance();
        if t.kind != kind {
            return Err(ParseError::at(&t, format!("expected {what}, got `{}`", display(&t))));
        }
        Ok(t)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token, ParseError> {
        let t = self.advance();
        if t.kind != TokKind::Ident || t.text != kw {
            return Err(ParseError::at(&t, format!("expected `{kw}`, got `{}`", display(&t))));
        }
        Ok(t)
    }

    fn scenario(&mut self) -> Result<Scenario, ParseError> {
        let kw = self.expect_keyword("scenario")?;
        let name = self.expect_kind(TokKind::Str, "a scenario name string")?;
        self.expect_kind(TokKind::LBrace, "`{`")?;

        let mut link: Option<(Link, Token)> = None;
        let mut duration: Option<Dur> = None;
        let mut sample_every: Option<Dur> = None;
        let mut flows: Vec<Flow> = Vec::new();
        let mut flow_pos: Vec<(String, u32, u32)> = Vec::new();
        let mut workload: Option<WorkloadSpec> = None;

        loop {
            let t = self.advance();
            match t.kind {
                TokKind::RBrace => break,
                TokKind::Ident => match t.text.as_str() {
                    "link" => {
                        if link.is_some() {
                            return Err(ParseError::at(&t, "duplicate `link` block"));
                        }
                        link = Some(self.link_block()?);
                    }
                    "duration" => {
                        if duration.is_some() {
                            return Err(ParseError::at(&t, "duplicate field `duration` in scenario block"));
                        }
                        duration = Some(self.positive_dur("duration")?);
                    }
                    "sample-every" => {
                        if sample_every.is_some() {
                            return Err(ParseError::at(
                                &t,
                                "duplicate field `sample-every` in scenario block",
                            ));
                        }
                        sample_every = Some(self.positive_dur("sample-every")?);
                    }
                    "flow" => {
                        let (flow, id_tok) = self.flow_block()?;
                        if let Some((_, l, c)) =
                            flow_pos.iter().find(|(id, _, _)| *id == flow.id)
                        {
                            return Err(ParseError::at(
                                &id_tok,
                                format!("duplicate flow id `{}` (first declared at {l}:{c})", flow.id),
                            ));
                        }
                        flow_pos.push((flow.id.clone(), id_tok.line, id_tok.col));
                        flows.push(flow);
                    }
                    "workload" => {
                        if workload.is_some() {
                            return Err(ParseError::at(&t, "duplicate `workload` block"));
                        }
                        workload = Some(self.workload_block()?);
                    }
                    other => {
                        return Err(ParseError::at(
                            &t,
                            format!(
                                "unknown item `{other}` in scenario block (expected: link, duration, sample-every, flow, workload)"
                            ),
                        ));
                    }
                },
                _ => {
                    return Err(ParseError::at(
                        &t,
                        format!("expected a scenario item or `}}`, got `{}`", display(&t)),
                    ));
                }
            }
        }

        let Some((link, buffer_tok)) = link else {
            return Err(ParseError::at(&kw, "scenario is missing a `link` block"));
        };
        let Some(duration) = duration else {
            return Err(ParseError::at(&kw, "scenario is missing required field `duration`"));
        };
        if flows.is_empty() && workload.is_none() {
            return Err(ParseError::at(
                &kw,
                "scenario has no flows (at least one `flow` or `workload` block is required)",
            ));
        }
        // A buffer smaller than one packet drops every packet: reject the
        // dead configuration here rather than run it to zero throughput.
        let max_pkt = flows
            .iter()
            .map(|f| f.mss)
            .chain(workload.iter().map(|w| w.mss))
            .map(|mss| mss.unwrap_or(DEFAULT_MSS))
            .max()
            .unwrap_or(DEFAULT_MSS);
        let buffer_bytes = link_config(&link).buffer_bytes;
        if buffer_bytes < max_pkt {
            return Err(ParseError::at(
                &buffer_tok,
                format!(
                    "buffer of {buffer_bytes}B is smaller than one {max_pkt}B packet, so every packet would be dropped"
                ),
            ));
        }
        Ok(Scenario { name: name.text, link, duration, sample_every, flows, workload })
    }

    /// A link block, and the token where its buffer value starts.
    fn link_block(&mut self) -> Result<(Link, Token), ParseError> {
        let open = self.expect_kind(TokKind::LBrace, "`{`")?;
        let mut rate: Option<f64> = None;
        let mut buffer: Option<(Buffer, Token)> = None;
        let mut ecn: Option<u64> = None;
        loop {
            let t = self.advance();
            match t.kind {
                TokKind::RBrace => break,
                TokKind::Ident => match t.text.as_str() {
                    "rate" => {
                        if rate.is_some() {
                            return Err(ParseError::at(&t, "duplicate field `rate` in link block"));
                        }
                        let tok = self.expect_kind(TokKind::Number, "a rate")?;
                        let mbps = parse_rate(&tok)?;
                        if mbps <= 0.0 {
                            return Err(ParseError::at(&tok, "link rate must be positive"));
                        }
                        rate = Some(mbps);
                    }
                    "buffer" => {
                        if buffer.is_some() {
                            return Err(ParseError::at(&t, "duplicate field `buffer` in link block"));
                        }
                        let value = self.peek().clone();
                        buffer = Some((self.buffer_spec()?, value));
                    }
                    "ecn" => {
                        if ecn.is_some() {
                            return Err(ParseError::at(&t, "duplicate field `ecn` in link block"));
                        }
                        let tok = self.expect_kind(TokKind::Number, "a byte count")?;
                        ecn = Some(parse_bytes(&tok)?);
                    }
                    other => {
                        return Err(ParseError::at(
                            &t,
                            format!("unknown field `{other}` in link block (expected: rate, buffer, ecn)"),
                        ));
                    }
                },
                _ => {
                    return Err(ParseError::at(
                        &t,
                        format!("expected a link field or `}}`, got `{}`", display(&t)),
                    ));
                }
            }
        }
        let Some(rate_mbps) = rate else {
            return Err(ParseError::at(&open, "link is missing required field `rate`"));
        };
        let Some((buffer, buffer_tok)) = buffer else {
            return Err(ParseError::at(&open, "link is missing required field `buffer`"));
        };
        Ok((Link { rate_mbps, buffer, ecn_bytes: ecn }, buffer_tok))
    }

    fn buffer_spec(&mut self) -> Result<Buffer, ParseError> {
        let t = self.advance();
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "ample") => Ok(Buffer::Ample),
            (TokKind::Ident, "bdp") => {
                let n_tok = self.expect_kind(TokKind::Number, "a BDP multiple")?;
                let n = parse_bare_f64(&n_tok)?;
                if n <= 0.0 {
                    return Err(ParseError::at(&n_tok, "BDP multiple must be positive"));
                }
                let rtt = self.positive_dur("bdp")?;
                Ok(Buffer::Bdp { n, rtt })
            }
            (TokKind::Number, _) => Ok(Buffer::Bytes(parse_bytes(&t)?)),
            _ => Err(ParseError::at(
                &t,
                format!(
                    "expected a buffer spec: `ample`, a byte count like `120000B`, or `bdp <n> <rtt>`; got `{}`",
                    display(&t)
                ),
            )),
        }
    }

    fn flow_block(&mut self) -> Result<(Flow, Token), ParseError> {
        let id_tok = self.expect_kind(TokKind::Ident, "a flow id")?;
        self.expect_kind(TokKind::LBrace, "`{`")?;
        let mut cca: Option<CcaId> = None;
        let mut rtt: Option<Dur> = None;
        let mut jitter: Option<JitterSpec> = None;
        let mut loss: Option<LossSpec> = None;
        let mut datagram = false;
        let mut transport_seen = false;
        let mut start: Option<Dur> = None;
        let mut mss: Option<u64> = None;
        let mut audit_jitter_bound: Option<Dur> = None;
        let id = id_tok.text.clone();

        loop {
            let t = self.advance();
            match t.kind {
                TokKind::RBrace => break,
                TokKind::Ident => {
                    let dup = |field: &str| {
                        ParseError::at(&t, format!("duplicate field `{field}` in flow `{id}`"))
                    };
                    match t.text.as_str() {
                        "cca" => {
                            if cca.is_some() {
                                return Err(dup("cca"));
                            }
                            cca = Some(self.cca_name()?);
                        }
                        "rtt" => {
                            if rtt.is_some() {
                                return Err(dup("rtt"));
                            }
                            rtt = Some(self.positive_dur("rtt")?);
                        }
                        "jitter" => {
                            if jitter.is_some() {
                                return Err(dup("jitter"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a duration")?;
                            let max = parse_dur(&tok)?;
                            self.expect_keyword("seed")?;
                            let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                            jitter = Some(JitterSpec { max, seed: parse_bare_int(&seed_tok)? });
                        }
                        "loss" => {
                            if loss.is_some() {
                                return Err(dup("loss"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a loss probability")?;
                            let rate = parse_bare_f64(&tok)?;
                            if !(0.0..=1.0).contains(&rate) {
                                return Err(ParseError::at(
                                    &tok,
                                    format!("loss probability must be in [0, 1], got `{}`", tok.text),
                                ));
                            }
                            self.expect_keyword("seed")?;
                            let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                            loss = Some(LossSpec { rate, seed: parse_bare_int(&seed_tok)? });
                        }
                        "transport" => {
                            if transport_seen {
                                return Err(dup("transport"));
                            }
                            transport_seen = true;
                            let tok = self.expect_kind(TokKind::Ident, "a transport")?;
                            datagram = match tok.text.as_str() {
                                "datagram" => true,
                                "reliable" => false,
                                other => {
                                    return Err(ParseError::at(
                                        &tok,
                                        format!("unknown transport `{other}` (expected: reliable, datagram)"),
                                    ));
                                }
                            };
                        }
                        "start" => {
                            if start.is_some() {
                                return Err(dup("start"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a duration")?;
                            start = Some(parse_dur(&tok)?);
                        }
                        "mss" => {
                            if mss.is_some() {
                                return Err(dup("mss"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a packet size")?;
                            let v = parse_bare_int(&tok)?;
                            if v == 0 {
                                return Err(ParseError::at(&tok, "mss must be positive"));
                            }
                            mss = Some(v);
                        }
                        "audit-jitter-bound" => {
                            if audit_jitter_bound.is_some() {
                                return Err(dup("audit-jitter-bound"));
                            }
                            audit_jitter_bound = Some(self.positive_dur("audit-jitter-bound")?);
                        }
                        other => {
                            return Err(ParseError::at(
                                &t,
                                format!(
                                    "unknown field `{other}` in flow block (expected: cca, rtt, jitter, loss, transport, start, mss, audit-jitter-bound)"
                                ),
                            ));
                        }
                    }
                }
                _ => {
                    return Err(ParseError::at(
                        &t,
                        format!("expected a flow field or `}}`, got `{}`", display(&t)),
                    ));
                }
            }
        }

        let Some(cca) = cca else {
            return Err(ParseError::at(&id_tok, format!("flow `{id}` is missing required field `cca`")));
        };
        let Some(rtt) = rtt else {
            return Err(ParseError::at(&id_tok, format!("flow `{id}` is missing required field `rtt`")));
        };
        Ok((
            Flow { id, cca, rtt, jitter, loss, datagram, start, mss, audit_jitter_bound },
            id_tok,
        ))
    }

    fn workload_block(&mut self) -> Result<WorkloadSpec, ParseError> {
        let open = self.expect_kind(TokKind::LBrace, "`{`")?;
        let mut count: Option<u64> = None;
        let mut arrivals: Option<ArrivalSpec> = None;
        let mut sizes: Option<SizeSpec> = None;
        let mut cca: Option<CcaId> = None;
        let mut rtt: Option<Dur> = None;
        let mut jitter: Option<JitterSpec> = None;
        let mut loss: Option<LossSpec> = None;
        let mut start: Option<Dur> = None;
        let mut mss: Option<u64> = None;

        loop {
            let t = self.advance();
            match t.kind {
                TokKind::RBrace => break,
                TokKind::Ident => {
                    let dup = |field: &str| {
                        ParseError::at(&t, format!("duplicate field `{field}` in workload block"))
                    };
                    match t.text.as_str() {
                        "flows" => {
                            if count.is_some() {
                                return Err(dup("flows"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a flow count")?;
                            let n = parse_bare_int(&tok)?;
                            if n == 0 {
                                return Err(ParseError::at(&tok, "workload flow count must be positive"));
                            }
                            count = Some(n);
                        }
                        "arrivals" => {
                            if arrivals.is_some() {
                                return Err(dup("arrivals"));
                            }
                            arrivals = Some(self.arrival_spec()?);
                        }
                        "sizes" => {
                            if sizes.is_some() {
                                return Err(dup("sizes"));
                            }
                            sizes = Some(self.size_spec()?);
                        }
                        "cca" => {
                            if cca.is_some() {
                                return Err(dup("cca"));
                            }
                            cca = Some(self.cca_name()?);
                        }
                        "rtt" => {
                            if rtt.is_some() {
                                return Err(dup("rtt"));
                            }
                            rtt = Some(self.positive_dur("rtt")?);
                        }
                        "jitter" => {
                            if jitter.is_some() {
                                return Err(dup("jitter"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a duration")?;
                            let max = parse_dur(&tok)?;
                            self.expect_keyword("seed")?;
                            let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                            jitter = Some(JitterSpec { max, seed: parse_bare_int(&seed_tok)? });
                        }
                        "loss" => {
                            if loss.is_some() {
                                return Err(dup("loss"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a loss probability")?;
                            let rate = parse_bare_f64(&tok)?;
                            if !(0.0..=1.0).contains(&rate) {
                                return Err(ParseError::at(
                                    &tok,
                                    format!("loss probability must be in [0, 1], got `{}`", tok.text),
                                ));
                            }
                            self.expect_keyword("seed")?;
                            let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                            loss = Some(LossSpec { rate, seed: parse_bare_int(&seed_tok)? });
                        }
                        "start" => {
                            if start.is_some() {
                                return Err(dup("start"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a duration")?;
                            start = Some(parse_dur(&tok)?);
                        }
                        "mss" => {
                            if mss.is_some() {
                                return Err(dup("mss"));
                            }
                            let tok = self.expect_kind(TokKind::Number, "a packet size")?;
                            let v = parse_bare_int(&tok)?;
                            if v == 0 {
                                return Err(ParseError::at(&tok, "mss must be positive"));
                            }
                            mss = Some(v);
                        }
                        other => {
                            return Err(ParseError::at(
                                &t,
                                format!(
                                    "unknown field `{other}` in workload block (expected: flows, arrivals, sizes, cca, rtt, jitter, loss, start, mss)"
                                ),
                            ));
                        }
                    }
                }
                _ => {
                    return Err(ParseError::at(
                        &t,
                        format!("expected a workload field or `}}`, got `{}`", display(&t)),
                    ));
                }
            }
        }

        let Some(count) = count else {
            return Err(ParseError::at(&open, "workload is missing required field `flows`"));
        };
        let Some(arrivals) = arrivals else {
            return Err(ParseError::at(&open, "workload is missing required field `arrivals`"));
        };
        let Some(sizes) = sizes else {
            return Err(ParseError::at(&open, "workload is missing required field `sizes`"));
        };
        let Some(cca) = cca else {
            return Err(ParseError::at(&open, "workload is missing required field `cca`"));
        };
        let Some(rtt) = rtt else {
            return Err(ParseError::at(&open, "workload is missing required field `rtt`"));
        };
        Ok(WorkloadSpec { count, arrivals, sizes, cca, rtt, jitter, loss, start, mss })
    }

    /// `every <dur>` or `poisson <dur> seed <int>`.
    fn arrival_spec(&mut self) -> Result<ArrivalSpec, ParseError> {
        let t = self.advance();
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "every") => Ok(ArrivalSpec::Every(self.positive_dur("arrivals every")?)),
            (TokKind::Ident, "poisson") => {
                let mean = self.positive_dur("arrivals poisson mean")?;
                self.expect_keyword("seed")?;
                let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                Ok(ArrivalSpec::Poisson { mean, seed: parse_bare_int(&seed_tok)? })
            }
            _ => Err(ParseError::at(
                &t,
                format!(
                    "expected an arrival process: `every <dur>` or `poisson <mean> seed <n>`; got `{}`",
                    display(&t)
                ),
            )),
        }
    }

    /// `fixed <bytes>` or `pareto <min> <alpha> <cap> seed <int>`.
    fn size_spec(&mut self) -> Result<SizeSpec, ParseError> {
        let t = self.advance();
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fixed") => {
                let tok = self.expect_kind(TokKind::Number, "a byte count")?;
                let bytes = parse_bytes(&tok)?;
                if bytes == 0 {
                    return Err(ParseError::at(&tok, "flow size must be positive"));
                }
                Ok(SizeSpec::Fixed(bytes))
            }
            (TokKind::Ident, "pareto") => {
                let min_tok = self.expect_kind(TokKind::Number, "a byte count")?;
                let min = parse_bytes(&min_tok)?;
                if min == 0 {
                    return Err(ParseError::at(&min_tok, "pareto minimum size must be positive"));
                }
                let alpha_tok = self.expect_kind(TokKind::Number, "a tail index")?;
                let alpha = parse_bare_f64(&alpha_tok)?;
                if alpha <= 0.0 {
                    return Err(ParseError::at(&alpha_tok, "pareto tail index must be positive"));
                }
                let cap_tok = self.expect_kind(TokKind::Number, "a byte count")?;
                let cap = parse_bytes(&cap_tok)?;
                if cap < min {
                    return Err(ParseError::at(&cap_tok, "pareto cap must be at least the minimum size"));
                }
                self.expect_keyword("seed")?;
                let seed_tok = self.expect_kind(TokKind::Number, "a seed")?;
                Ok(SizeSpec::Pareto { min, alpha, cap, seed: parse_bare_int(&seed_tok)? })
            }
            _ => Err(ParseError::at(
                &t,
                format!(
                    "expected a size distribution: `fixed <bytes>` or `pareto <min> <alpha> <cap> seed <n>`; got `{}`",
                    display(&t)
                ),
            )),
        }
    }

    /// A CCA name from the registry.
    fn cca_name(&mut self) -> Result<CcaId, ParseError> {
        let tok = self.expect_kind(TokKind::Ident, "a CCA name")?;
        let Some(c) = CcaId::from_slug(&tok.text) else {
            let known: Vec<&str> = ALL_CCAS.iter().map(|c| c.slug()).collect();
            return Err(ParseError::at(
                &tok,
                format!("unknown CCA `{}` (expected one of: {})", tok.text, known.join(", ")),
            ));
        };
        Ok(c)
    }

    /// A duration value that must be strictly positive (`what` names the
    /// field in the diagnostic).
    fn positive_dur(&mut self, what: &str) -> Result<Dur, ParseError> {
        let tok = self.expect_kind(TokKind::Number, "a duration")?;
        let d = parse_dur(&tok)?;
        if d == Dur::ZERO {
            return Err(ParseError::at(&tok, format!("{what} must be positive")));
        }
        Ok(d)
    }
}

/// How a token reads in a diagnostic (`<eof>` for end of input).
fn display(t: &Token) -> String {
    if t.kind == TokKind::Eof {
        "<eof>".to_string()
    } else {
        t.text.clone()
    }
}

/// Split a number token into its numeric text and unit suffix.
fn split_number(text: &str) -> (&str, &str) {
    let cut = text.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(text.len());
    text.split_at(cut)
}

fn numeric_value(tok: &Token, digits: &str) -> Result<f64, ParseError> {
    digits
        .parse::<f64>()
        .map_err(|_| ParseError::at(tok, format!("malformed number `{}`", tok.text)))
}

/// Parse a duration: a number with unit `s`, `ms`, `us` or `ns`.
fn parse_dur(tok: &Token) -> Result<Dur, ParseError> {
    let (digits, unit) = split_number(&tok.text);
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        "" => {
            return Err(ParseError::at(
                tok,
                format!("missing unit: expected a duration (s/ms/us/ns), got bare `{}`", tok.text),
            ));
        }
        _ => {
            return Err(ParseError::at(
                tok,
                format!("unit mismatch: expected a duration (s/ms/us/ns), got `{}`", tok.text),
            ));
        }
    };
    Ok(Dur((numeric_value(tok, digits)? * scale).round() as u64))
}

/// Parse a rate into Mbit/s: a number with unit `gbps`, `mbps` or `kbps`.
fn parse_rate(tok: &Token) -> Result<f64, ParseError> {
    let (digits, unit) = split_number(&tok.text);
    let scale = match unit {
        "gbps" => 1000.0,
        "mbps" => 1.0,
        "kbps" => 0.001,
        "" => {
            return Err(ParseError::at(
                tok,
                format!("missing unit: expected a rate (gbps/mbps/kbps), got bare `{}`", tok.text),
            ));
        }
        _ => {
            return Err(ParseError::at(
                tok,
                format!("unit mismatch: expected a rate (gbps/mbps/kbps), got `{}`", tok.text),
            ));
        }
    };
    Ok(numeric_value(tok, digits)? * scale)
}

/// Parse a byte count: an integer with unit `B`.
fn parse_bytes(tok: &Token) -> Result<u64, ParseError> {
    let (digits, unit) = split_number(&tok.text);
    if unit != "B" {
        return Err(ParseError::at(
            tok,
            format!("unit mismatch: expected a byte count like `120000B`, got `{}`", tok.text),
        ));
    }
    digits
        .parse::<u64>()
        .map_err(|_| ParseError::at(tok, format!("expected an integer byte count, got `{}`", tok.text)))
}

/// Parse a unitless integer (seeds, packet sizes).
fn parse_bare_int(tok: &Token) -> Result<u64, ParseError> {
    let (digits, unit) = split_number(&tok.text);
    if !unit.is_empty() {
        return Err(ParseError::at(
            tok,
            format!("unit mismatch: expected a bare number, got `{}`", tok.text),
        ));
    }
    digits
        .parse::<u64>()
        .map_err(|_| ParseError::at(tok, format!("expected an integer, got `{}`", tok.text)))
}

/// Parse a unitless float (loss probabilities, BDP multiples).
fn parse_bare_f64(tok: &Token) -> Result<f64, ParseError> {
    let (digits, unit) = split_number(&tok.text);
    if !unit.is_empty() {
        return Err(ParseError::at(
            tok,
            format!("unit mismatch: expected a bare number, got `{}`", tok.text),
        ));
    }
    numeric_value(tok, digits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::Dur;

    const COPA_JITTER: &str = r#"
scenario "copa-jitter" {
  link { rate 24mbps buffer ample }
  duration 5s
  flow f0 {
    cca copa
    rtt 40ms
    jitter 10ms seed 42
  }
}
"#;

    #[test]
    fn parses_a_canonical_scenario() {
        let s = parse(COPA_JITTER).expect("parses");
        assert_eq!(s.name, "copa-jitter");
        assert_eq!(s.link.rate_mbps, 24.0);
        assert_eq!(s.link.buffer, Buffer::Ample);
        assert_eq!(s.duration, Dur::from_secs(5));
        assert_eq!(s.sample_every, None);
        assert_eq!(s.flows.len(), 1);
        let f = &s.flows[0];
        assert_eq!(f.id, "f0");
        assert_eq!(f.cca, CcaId::Copa);
        assert_eq!(f.rtt, Dur::from_millis(40));
        assert_eq!(f.jitter, Some(JitterSpec { max: Dur::from_millis(10), seed: 42 }));
        assert!(!f.datagram);
    }

    #[test]
    fn parses_every_field() {
        let src = r#"
scenario "kitchen-sink" {
  link { rate 48mbps buffer bdp 1.5 40ms ecn 30000B }
  duration 2s
  sample-every 5ms
  flow a { cca bbr rtt 40ms }
  flow b {
    cca vivace
    rtt 20ms
    jitter 8ms seed 3
    loss 0.02 seed 7
    transport datagram
    start 500ms
    mss 1200
    audit-jitter-bound 1ms
  }
}
"#;
        let s = parse(src).expect("parses");
        assert_eq!(s.link.buffer, Buffer::Bdp { n: 1.5, rtt: Dur::from_millis(40) });
        assert_eq!(s.link.ecn_bytes, Some(30000));
        assert_eq!(s.sample_every, Some(Dur::from_millis(5)));
        let b = &s.flows[1];
        assert_eq!(b.loss, Some(LossSpec { rate: 0.02, seed: 7 }));
        assert!(b.datagram);
        assert_eq!(b.start, Some(Dur::from_millis(500)));
        assert_eq!(b.mss, Some(1200));
        assert_eq!(b.audit_jitter_bound, Some(Dur::from_millis(1)));
    }

    #[test]
    fn field_order_is_free() {
        let src = r#"
scenario "reordered" {
  flow f0 { rtt 40ms cca reno }
  duration 1s
  link { buffer 60000B rate 8mbps }
}
"#;
        let s = parse(src).expect("parses");
        assert_eq!(s.link.buffer, Buffer::Bytes(60000));
        assert_eq!(s.flows[0].cca, CcaId::Reno);
    }

    #[test]
    fn rate_units_normalize_to_mbps() {
        let mk = |rate: &str| {
            parse(&format!(
                "scenario \"r\" {{ link {{ rate {rate} buffer ample }} duration 1s flow f {{ cca reno rtt 40ms }} }}"
            ))
            .expect("parses")
            .link
            .rate_mbps
        };
        assert_eq!(mk("500kbps"), 0.5);
        assert_eq!(mk("2gbps"), 2000.0);
        assert_eq!(mk("24mbps"), 24.0);
    }

    #[test]
    fn parses_a_workload_block() {
        let src = r#"
scenario "population" {
  link { rate 48mbps buffer ample }
  duration 12s
  workload {
    flows 1000
    arrivals poisson 8ms seed 9
    sizes pareto 12000B 1.3 300000B seed 5
    cca reno
    rtt 20ms
    jitter 2ms seed 3
    loss 0.001 seed 4
    start 100ms
    mss 1200
  }
}
"#;
        let s = parse(src).expect("parses");
        assert!(s.flows.is_empty(), "workload-only scenario needs no static flows");
        let w = s.workload.expect("workload present");
        assert_eq!(w.count, 1000);
        assert_eq!(
            w.arrivals,
            crate::ast::ArrivalSpec::Poisson { mean: Dur::from_millis(8), seed: 9 }
        );
        assert_eq!(
            w.sizes,
            crate::ast::SizeSpec::Pareto { min: 12_000, alpha: 1.3, cap: 300_000, seed: 5 }
        );
        assert_eq!(w.cca, CcaId::Reno);
        assert_eq!(w.rtt, Dur::from_millis(20));
        assert_eq!(w.jitter, Some(JitterSpec { max: Dur::from_millis(2), seed: 3 }));
        assert_eq!(w.loss, Some(LossSpec { rate: 0.001, seed: 4 }));
        assert_eq!(w.start, Some(Dur::from_millis(100)));
        assert_eq!(w.mss, Some(1200));
    }

    #[test]
    fn workload_fixed_arrivals_and_sizes_parse() {
        let src = r#"
scenario "steady" {
  link { rate 8mbps buffer ample }
  duration 2s
  flow f0 { cca reno rtt 20ms }
  workload { flows 8 arrivals every 100ms sizes fixed 30000B cca cubic rtt 40ms }
}
"#;
        let s = parse(src).expect("parses");
        assert_eq!(s.flows.len(), 1);
        let w = s.workload.expect("workload present");
        assert_eq!(w.arrivals, crate::ast::ArrivalSpec::Every(Dur::from_millis(100)));
        assert_eq!(w.sizes, crate::ast::SizeSpec::Fixed(30_000));
        assert_eq!(w.jitter, None);
    }

    #[test]
    fn workload_requires_its_core_fields() {
        let err = parse(
            "scenario \"w\" { link { rate 8mbps buffer ample } duration 1s workload { flows 4 arrivals every 10ms sizes fixed 1000B cca reno } }",
        )
        .expect_err("missing rtt");
        assert_eq!(err.msg, "workload is missing required field `rtt`");
        let err = parse(
            "scenario \"w\" { link { rate 8mbps buffer ample } duration 1s workload { arrivals every 10ms sizes fixed 1000B cca reno rtt 20ms } }",
        )
        .expect_err("missing flows");
        assert_eq!(err.msg, "workload is missing required field `flows`");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("scenario \"x\" {\n  link { rate 24mbps buffer ample }\n  duration 0s\n  flow f { cca reno rtt 40ms }\n}")
            .expect_err("zero duration");
        assert_eq!((err.line, err.col), (3, 12));
        assert_eq!(err.msg, "duration must be positive");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let src = format!("{COPA_JITTER} extra");
        let err = parse(&src).expect_err("trailing tokens");
        assert!(err.msg.contains("expected end of input"), "{err}");
    }

    #[test]
    fn buffer_must_hold_the_largest_packet() {
        let scn = |buffer: &str, mss: &str| {
            format!(
                "scenario \"b\" {{ link {{ rate 1mbps buffer {buffer} }} duration 1s \
                 flow f {{ cca reno rtt 40ms {mss} }} workload {{ flows 2 arrivals every 10ms \
                 sizes fixed 1000B cca reno rtt 20ms mss 1000 }} }}"
            )
        };
        // Exactly one default-size packet fits.
        parse(&scn("1500B", "")).expect("a one-packet buffer is live");
        let err = parse(&scn("1499B", "")).expect_err("sub-packet buffer");
        assert_eq!((err.line, err.col), (1, 41));
        // `bdp` buffers are sized as compile sizes them: 1 Mbit/s × 1 ms is
        // 125 B, floored to 3000 B — too small for a 4000 B packet.
        parse(&scn("bdp 1 1ms", "mss 3000")).expect("3000 B floor holds 3000 B");
        let err = parse(&scn("bdp 1 1ms", "mss 4000")).expect_err("mss above the floor");
        assert_eq!(
            err.msg,
            "buffer of 3000B is smaller than one 4000B packet, so every packet would be dropped"
        );
    }
}
