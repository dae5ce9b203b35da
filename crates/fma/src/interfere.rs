//! Whole-network interference analysis against a burst-mode spec:
//! cross-cone waveform propagation, interior-point race sweeps, feedback
//! pairing and essential-hazard candidates.
//!
//! The spec is expanded ([`asyncmap_burst::expand`]) into one specified
//! function per output and per next-state bit, each carrying the list of
//! transitions it must implement hazard-free over the combined
//! input + state-bit space. For every *distinct* transition
//! `(start, end)` the analyzer:
//!
//! 1. **propagates 8-valued waveform classes** through the whole mapped
//!    netlist, instance by instance in topological order — each cell's
//!    pins take the waves of their driving signals, so an upstream cone's
//!    glitch-capable output flows into every downstream cone instead of
//!    being assumed monotone. A hazard-flagged wave at a specified output
//!    is `boundary.burst-glitch`; settled endpoints that contradict the
//!    required transition kind are `boundary.burst-mismatch`.
//! 2. **sweeps the interior of the burst** with the word-parallel
//!    evaluator: under fundamental mode the output must hold its entry
//!    value at every proper sub-burst point (outputs switch only at burst
//!    completion, and state bursts must not be visible at all). A
//!    premature change during an input burst is
//!    `race.premature-transition`; during a one-hot state burst it is
//!    `race.state-burst`.
//!
//! Independently, consecutive spec edges that re-toggle the same input
//! are reported as `race.essential-candidate` (Info): that topology is
//! exactly Unger's essential hazard, where the second change of a signal
//! races the state feedback it triggered.

use crate::kernel::{eval_design_packed, eval_design_waves, WalkScratch};
use crate::FmaReport;
use asyncmap_burst::{BurstSpec, FlowTable, TransKind};
use asyncmap_core::{par_indexed_with, MappedDesign, NetlistWalk};
use asyncmap_cube::Bits;
use asyncmap_library::Library;
use asyncmap_report::Severity;
use std::collections::HashMap;

/// Interior sweeps are exhaustive up to this many changing variables;
/// beyond it only single-variable sub-bursts are probed (and the
/// truncation is counted, never silent).
const SWEEP_VAR_LIMIT: usize = 8;

/// Everything the spec phases feed back into the caller's counters.
#[derive(Default)]
pub(crate) struct SpecOutcome {
    pub transitions: usize,
    pub race_points: usize,
    pub race_capped: usize,
    pub feedback_pairs: usize,
    pub essential_candidates: usize,
}

pub(crate) fn check_spec(
    design: &MappedDesign,
    library: &Library,
    spec: &BurstSpec,
    flow: &FlowTable,
    threads: usize,
    report: &mut FmaReport,
) -> SpecOutcome {
    let mut out = SpecOutcome::default();
    let net = &design.subject;

    // The design must present exactly the flow table's interface: the
    // combined variables as primary inputs, in order, and one output per
    // specified function. Anything else means the spec does not describe
    // this design, and transition analysis would dereference garbage.
    let input_names: Vec<&str> = net.inputs().iter().map(|&s| net.input_name(s)).collect();
    if input_names.len() != flow.var_names.len()
        || input_names
            .iter()
            .zip(&flow.var_names)
            .any(|(a, b)| *a != b.as_str())
    {
        report.push(
            Severity::Error,
            "spec.input-mismatch",
            spec.name.clone(),
            format!(
                "design inputs [{}] do not match the spec's combined variables [{}]",
                input_names.join(", "),
                flow.var_names.join(", ")
            ),
        );
        return out;
    }
    let output_pos: HashMap<&str, usize> = net
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    let mut func_output: Vec<Option<usize>> = Vec::with_capacity(flow.functions.len());
    for f in &flow.functions {
        let pos = output_pos.get(f.name.as_str()).copied();
        if pos.is_none() {
            report.push(
                Severity::Error,
                "spec.output-missing",
                f.name.clone(),
                "specified function has no matching primary output in the design".to_owned(),
            );
        }
        func_output.push(pos);
    }

    out.feedback_pairs = check_feedback(design, spec, report);
    out.essential_candidates = essential_candidates(spec, report);

    // Distinct (start, end) pairs; each carries every (function,
    // transition) that specifies it, so one waveform walk and one packed
    // sweep serve all functions of an edge phase.
    type PairUsers = Vec<(usize, usize)>;
    let mut pair_index: HashMap<(Vec<u64>, Vec<u64>), usize> = HashMap::new();
    let mut pairs: Vec<(Bits, Bits, PairUsers)> = Vec::new();
    for (fi, f) in flow.functions.iter().enumerate() {
        if func_output[fi].is_none() {
            continue;
        }
        for (ti, t) in f.transitions.iter().enumerate() {
            out.transitions += 1;
            let key = (t.start.words().to_vec(), t.end.words().to_vec());
            let slot = *pair_index.entry(key).or_insert_with(|| {
                pairs.push((t.start.clone(), t.end.clone(), Vec::new()));
                pairs.len() - 1
            });
            pairs[slot].2.push((fi, ti));
        }
    }

    // Per-pair analysis on the shared worker pool, every pair one run of
    // the same instance order over its worker's scratch; merged in pair
    // order for a deterministic report.
    let walk = NetlistWalk::new(design);
    let scratch = || WalkScratch::new(&walk);
    let results = par_indexed_with(pairs.len(), threads, scratch, |scratch, i| {
        let (start, end, users) = &pairs[i];
        let pair = Pair { start, end, users };
        check_pair(&walk, library, flow, pair, &func_output, scratch)
    });
    for pair in results {
        out.race_points += pair.race_points;
        out.race_capped += pair.capped as usize;
        for (sev, code, path, msg) in pair.findings {
            report.push(sev, code, path, msg);
        }
    }
    out
}

#[derive(Default)]
struct PairOutcome {
    findings: Vec<(Severity, &'static str, String, String)>,
    race_points: usize,
    capped: bool,
}

/// One distinct `(start, end)` transition pair with the (function,
/// transition) indexes that specify it.
struct Pair<'a> {
    start: &'a Bits,
    end: &'a Bits,
    users: &'a [(usize, usize)],
}

/// Analyzes one distinct transition pair for every function that
/// specifies it: one waveform run and at most one packed sweep of `walk`.
fn check_pair(
    walk: &NetlistWalk<'_>,
    library: &Library,
    flow: &FlowTable,
    Pair { start, end, users }: Pair<'_>,
    func_output: &[Option<usize>],
    scratch: &mut WalkScratch,
) -> PairOutcome {
    let mut out = PairOutcome::default();
    let waves = eval_design_waves(walk, library, start, end, scratch);
    let changing: Vec<usize> = start.xor(end).iter_ones().collect();
    let state_burst = changing.iter().any(|&v| v >= flow.num_inputs);
    let burst = render_burst(flow, start, end, &changing);

    // Interior points: every proper non-empty sub-burst. Above the sweep
    // limit, probe single-variable sub-bursts only and say so.
    let mut points: Vec<Bits> = Vec::new();
    if changing.len() <= SWEEP_VAR_LIMIT {
        for mask in 1..(1u32 << changing.len()).saturating_sub(1) {
            let mut p = start.clone();
            for (bit, &var) in changing.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    p.set(var, end.get(var));
                }
            }
            points.push(p);
        }
    } else {
        out.capped = true;
        for &var in &changing {
            let mut p = start.clone();
            p.set(var, end.get(var));
            points.push(p);
        }
    }
    let rows = if points.is_empty() {
        Vec::new()
    } else {
        eval_design_packed(walk, library, &points, scratch)
    };

    for &(fi, ti) in users {
        let f = &flow.functions[fi];
        let t = &f.transitions[ti];
        let o = func_output[fi].expect("checked by caller");
        let w = waves[o];
        let (want_start, want_end) = match t.kind {
            TransKind::Static1 => (true, true),
            TransKind::Static0 => (false, false),
            TransKind::Rise => (false, true),
            TransKind::Fall => (true, false),
        };
        if (w.start, w.end) != (want_start, want_end) {
            out.findings.push((
                Severity::Error,
                "boundary.burst-mismatch",
                f.name.clone(),
                format!(
                    "specified {:?} transition over {burst} but the network settles \
                     {}\u{2192}{} — the mapped logic does not implement this burst",
                    t.kind,
                    u8::from(w.start),
                    u8::from(w.end),
                ),
            ));
            continue;
        }
        if w.hazard {
            out.findings.push((
                Severity::Error,
                "boundary.burst-glitch",
                f.name.clone(),
                format!(
                    "specified {:?} transition over {burst} can glitch: a cone's input \
                     burst is not covered by verified-monotonic upstream transitions \
                     (8-valued waveform propagation)",
                    t.kind
                ),
            ));
            continue;
        }
        // Fundamental mode: hold the entry value at every interior point.
        for (j, p) in points.iter().enumerate() {
            out.race_points += 1;
            let got = rows[o][j / 64] >> (j % 64) & 1 == 1;
            if got != want_start {
                let (code, what) = if state_burst {
                    (
                        "race.state-burst",
                        "one-hot state burst must be invisible at the outputs",
                    )
                } else {
                    (
                        "race.premature-transition",
                        "outputs may switch only at burst completion",
                    )
                };
                out.findings.push((
                    Severity::Error,
                    code,
                    f.name.clone(),
                    format!(
                        "holds {} at entry of {burst} but reads {} at interior point \
                         {} — {what}",
                        u8::from(want_start),
                        u8::from(got),
                        render_point(p),
                    ),
                ));
                break;
            }
        }
    }
    out
}

/// Pairs every `st{k}` input with its `y{k}` excitation output; orphans
/// on either side are `feedback.unpaired` warnings.
fn check_feedback(design: &MappedDesign, spec: &BurstSpec, report: &mut FmaReport) -> usize {
    let net = &design.subject;
    let inputs: Vec<&str> = net.inputs().iter().map(|&s| net.input_name(s)).collect();
    let outputs: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let mut pairs = 0;
    for k in 0..spec.num_states {
        let st = format!("st{k}");
        let y = format!("y{k}");
        match (
            inputs.iter().any(|n| **n == st),
            outputs.iter().any(|n| **n == y),
        ) {
            (true, true) => pairs += 1,
            (true, false) => report.push(
                Severity::Warning,
                "feedback.unpaired",
                st.clone(),
                format!("state variable input {st} has no excitation output {y}"),
            ),
            (false, true) => report.push(
                Severity::Warning,
                "feedback.unpaired",
                y.clone(),
                format!("excitation output {y} has no state variable input {st}"),
            ),
            (false, false) => report.push(
                Severity::Warning,
                "feedback.unpaired",
                st.clone(),
                format!("state {k} of the spec appears in the design as neither {st} nor {y}"),
            ),
        }
    }
    pairs
}

/// Flags consecutive spec edges that re-toggle an input: the classic
/// essential-hazard topology, where the input's second change must not
/// outrun the state feedback triggered by its first.
fn essential_candidates(spec: &BurstSpec, report: &mut FmaReport) -> usize {
    let mut count = 0;
    for e1 in &spec.edges {
        for e2 in &spec.edges {
            if e1.to != e2.from {
                continue;
            }
            let shared = e1.input_burst.and(&e2.input_burst);
            if shared.is_zero() {
                continue;
            }
            count += 1;
            let names: Vec<&str> = shared
                .iter_ones()
                .map(|i| spec.input_names[i].as_str())
                .collect();
            report.push(
                Severity::Info,
                "race.essential-candidate",
                format!("s{}\u{2192}s{}\u{2192}s{}", e1.from.0, e1.to.0, e2.to.0),
                format!(
                    "input(s) {} toggle in consecutive bursts; under fundamental mode \
                     the second change must wait for the state feedback (essential \
                     hazard — bound the feedback delay or add a delay pad)",
                    names.join(", ")
                ),
            );
        }
    }
    count
}

fn render_burst(flow: &FlowTable, start: &Bits, end: &Bits, changing: &[usize]) -> String {
    let moves: Vec<String> = changing
        .iter()
        .map(|&v| {
            format!(
                "{}{}",
                flow.var_names[v],
                if end.get(v) { "+" } else { "-" }
            )
        })
        .collect();
    format!("{{{}}} from {}", moves.join(", "), render_point(start))
}

fn render_point(p: &Bits) -> String {
    let mut s = String::with_capacity(p.len());
    for i in 0..p.len() {
        s.push(if p.get(i) { '1' } else { '0' });
    }
    s
}
