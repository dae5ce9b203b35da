//! One evaluation walk over a mapped netlist, shared by
//! [`MappedDesign::eval_mapped`] and the fundamental-mode analyzer's
//! waveform and word-parallel evaluators.

use crate::cover::Instance;
use crate::design::MappedDesign;
use asyncmap_network::SignalId;

/// A mapped design's instances in evaluation order — covers by root
/// signal, each cover's instances leaves-to-root — fixed once, so that
/// every later walk is a plain scan over a signal-indexed value vector.
///
/// **Cost contract.** [`NetlistWalk::new`] sorts the covers once and
/// scans every pin once, O(instances · log covers + pins + signals).
/// Each [`NetlistWalk::run`] is then O(inputs + instances + pins): no
/// sorting, no hashing, and no allocation beyond the caller's scratch,
/// which is sized once by [`NetlistWalk::signals`] and reused across
/// runs. A value vector left over from an earlier run is safe to reuse:
/// every pin read is proved here to follow a write of the same run, so a
/// walk never reads a stale or default value.
#[derive(Debug)]
pub struct NetlistWalk<'d> {
    design: &'d MappedDesign,
    order: Vec<&'d Instance>,
    /// The first pin read, in walk order, of a signal that neither a
    /// primary input nor an earlier instance writes: the position of the
    /// reading instance in `order` and the signal.
    undriven: Option<(usize, SignalId)>,
    /// Per primary output, its signal when a run writes it.
    outputs: Vec<Option<SignalId>>,
    /// One past the largest signal a run writes or reads.
    len: usize,
}

impl<'d> NetlistWalk<'d> {
    /// Fixes the evaluation order of `design`'s instances.
    pub fn new(design: &'d MappedDesign) -> Self {
        let net = &design.subject;
        let mut covers: Vec<usize> = (0..design.covers.len()).collect();
        covers.sort_by_key(|&i| design.covers[i].root);
        let order: Vec<&Instance> = covers
            .iter()
            .flat_map(|&i| &design.covers[i].instances)
            .collect();
        let named = order
            .iter()
            .flat_map(|inst| inst.inputs.iter().chain([&inst.output]))
            .chain(net.inputs());
        let len = named.map(|s| s.index() + 1).max().unwrap_or(0);
        let mut written = vec![false; len];
        for s in net.inputs() {
            written[s.index()] = true;
        }
        let mut undriven = None;
        for (k, inst) in order.iter().enumerate() {
            let unread = inst.inputs.iter().find(|s| !written[s.index()]);
            if let (None, Some(&s)) = (undriven, unread) {
                undriven = Some((k, s));
            }
            written[inst.output.index()] = true;
        }
        let outputs = net
            .outputs()
            .iter()
            .map(|&(_, s)| {
                written
                    .get(s.index())
                    .copied()
                    .unwrap_or(false)
                    .then_some(s)
            })
            .collect();
        NetlistWalk {
            design,
            order,
            undriven,
            outputs,
            len,
        }
    }

    /// The design this walk evaluates.
    pub fn design(&self) -> &'d MappedDesign {
        self.design
    }

    /// The length a value vector passed to [`Self::run`] must have at
    /// least: one past the largest signal the walk touches.
    pub fn signals(&self) -> usize {
        self.len
    }

    /// Writes `input(i)` to every primary input `i`, then, instance by
    /// instance in evaluation order, `eval(instance, pin values)` to its
    /// output signal. `pins` is scratch for the pin values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than [`Self::signals`], or when an
    /// instance reads an undriven signal ("undriven signal … in mapped
    /// netlist"): the instances before it have been evaluated, it and the
    /// rest have not. Structurally unsound designs are meant to be
    /// rejected before any walk runs.
    pub fn run<T: Copy>(
        &self,
        values: &mut [T],
        pins: &mut Vec<T>,
        mut input: impl FnMut(usize) -> T,
        mut eval: impl FnMut(&Instance, &[T]) -> T,
    ) {
        assert!(
            values.len() >= self.len,
            "value vector shorter than the walk"
        );
        for (i, s) in self.design.subject.inputs().iter().enumerate() {
            values[s.index()] = input(i);
        }
        let sound = self.undriven.map_or(self.order.len(), |(k, _)| k);
        for inst in &self.order[..sound] {
            pins.clear();
            pins.extend(inst.inputs.iter().map(|s| values[s.index()]));
            values[inst.output.index()] = eval(inst, pins);
        }
        if let Some((_, sig)) = self.undriven {
            panic!("undriven signal {sig} in mapped netlist");
        }
    }

    /// The value of primary output `o` after a [`Self::run`] over
    /// `values`; `None` when no primary input or instance drives it.
    pub fn output<T: Copy>(&self, values: &[T], o: usize) -> Option<T> {
        self.outputs[o].map(|s| values[s.index()])
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }
}
