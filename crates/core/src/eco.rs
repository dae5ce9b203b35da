//! Incremental (ECO) remapping: an [`EcoSession`] retains per-cone-shape
//! covers, their per-cone hazard-filter counts, and the warm hazard-verdict
//! cache across successive maps of edited designs, so a remap costs time
//! proportional to the *edit*, not the design.
//!
//! # Why shape-keyed reuse is exact
//!
//! The covering DP of a cone consumes nothing but the cone's local gate
//! tree (leaves opaque), the library, the cluster limits and the
//! objective. The last three are fixed for the lifetime of a session, so a
//! cover computed for one cone translates verbatim — positionally, via
//! the local references of a [`ShapeKeyScratch`] — to any cone with an
//! equal [`ConeShapeKey`]. The translated cover's instances, area (the
//! same float-addition sequence) and cut-truncation count are
//! bit-identical to what a cold run would compute for that cone, and
//! since `assemble` re-derives delay and buffers from the (freshly
//! decomposed) subject network, the whole remapped design is
//! `design_fingerprint`-identical to a cold map of the edited equations.
//!
//! Hazard-filter counters are part of the fingerprint
//! (`stats.hazard_rejects`), so the session also stores each shape's
//! per-cone `(hazard_checks, hazard_rejects)`, counted by the cone's own
//! cover job — these are shape-deterministic (the match memo stores
//! *pre*-hazard-filter candidate lists, so every cone performs its own
//! checks in a cold run regardless of memo or verdict-cache warmth) and
//! the stitched totals are the per-cone sums, exactly as a cold run
//! accumulates them.
//!
//! A remap is an ordinary [`map_run`] with the session's store as its
//! reuse argument: decompose and partition the whole design, dirty-mark
//! every cone against the store, cover the misses, stitch every cone.
//!
//! The session's first [`EcoSession::map`] call is the base map: every
//! shape misses the store and is covered; duplicate shapes within the run
//! already reuse the first instance's cover (a cold map computes the same
//! cover for each of them independently).

use crate::cover::{ConeCover, Instance};
use crate::fxhash::FxBuildHasher;
use crate::hcache::HazardCache;
use crate::profile::{self, HazardCounts, MapPhase};
use crate::tmap::{map_run, Flow, MapOptions};
use crate::{CoverError, MappedDesign};
use asyncmap_library::Library;
use asyncmap_network::{
    build_partition_dag, propagate_dirty, Cone, ConeShapeKey, EquationSet, Network,
    ShapeKeyScratch, SignalId,
};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// A cover in cone-local coordinates: instance outputs are gate positions,
/// instance inputs are [`ShapeKeyScratch::local_ref`] references. Valid
/// for every cone sharing the stored shape key.
#[derive(Debug, Clone)]
struct LocalInstance {
    cell_index: usize,
    /// Position in `Cone::gates` of the signal this instance produces.
    output: u32,
    /// Local references (leaf `i << 1`, gate `(j << 1) | 1`) of the pin
    /// bindings, in pin order.
    inputs: Vec<u32>,
}

#[derive(Debug, Clone)]
pub(crate) struct StoredCover {
    instances: Vec<LocalInstance>,
    area: f64,
    cut_truncations: usize,
    /// Hazard-filter work a cold covering of this shape performs.
    hazard: HazardCounts,
}

/// The shape-keyed cover store of an [`EcoSession`], the reuse argument
/// of [`map_run`]. Fx-hashed: shape keys are process-built words, never
/// untrusted input, and every run probes the store once or twice per cone.
pub(crate) type CoverStore = HashMap<ConeShapeKey, StoredCover, FxBuildHasher>;

/// Reuse accounting of one [`EcoSession::map`] call, alongside the
/// design's ordinary [`MapStats`](crate::MapStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcoStats {
    /// Cones in the partition of this map's subject network.
    pub cones_total: usize,
    /// Cones whose cover was served from the shape store.
    pub cones_reused: usize,
    /// Cones actually re-covered (store misses).
    pub cones_remapped: usize,
    /// Cones in the edit's blast radius: store misses plus everything
    /// downstream of them in the partition DAG. Shape-keyed reuse makes
    /// remapping the downstream part unnecessary; this is the honest
    /// measure of how much of the design the edit could have disturbed.
    pub cones_downstream_dirty: usize,
    /// Distinct cone shapes in the session store after this map.
    pub store_entries: usize,
}

/// The result of one incremental remap.
#[derive(Debug)]
pub struct EcoOutcome {
    /// The remapped design — `design_fingerprint`-identical to a cold
    /// `async_tmap` of the same equations.
    pub design: MappedDesign,
    /// Reuse accounting for this map call.
    pub eco: EcoStats,
}

/// An incremental remapping session over one library and one set of
/// mapping options.
///
/// Successive [`EcoSession::map`] calls share the hazard-verdict cache and
/// a store of covers keyed by [`ConeShapeKey`]; only cones whose shape is
/// new since the previous maps are re-covered, on `MapOptions::threads`
/// workers as in a cold run. Each cover job counts its own hazard-filter
/// work, so the result is the same at any thread count.
///
/// Cloning a session deep-copies the cover store but *shares* the
/// hazard-verdict cache (it is behaviorally transparent: warmth changes
/// timing, never results).
#[derive(Debug, Clone)]
pub struct EcoSession<'lib> {
    library: &'lib Library,
    options: MapOptions,
    cache: Arc<HazardCache>,
    store: CoverStore,
}

impl<'lib> EcoSession<'lib> {
    /// Creates a session mapping against `library` with `options`.
    pub fn new(library: &'lib Library, options: MapOptions) -> Self {
        EcoSession {
            library,
            options,
            cache: Arc::new(HazardCache::new()),
            store: HashMap::default(),
        }
    }

    /// Number of distinct cone shapes currently stored.
    pub fn store_entries(&self) -> usize {
        self.store.len()
    }

    /// Maps `eqs`, reusing stored covers for every cone whose shape the
    /// session has seen before. The first call is the base map (every
    /// shape is new). The result is bit-identical to a cold
    /// [`crate::async_tmap`] of the same equations under the session's
    /// options.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError`] if some gate admits no match.
    ///
    /// # Panics
    ///
    /// Panics if the session's library has not been hazard-annotated.
    pub fn map(&mut self, eqs: &EquationSet) -> Result<EcoOutcome, CoverError> {
        map_run(
            eqs,
            self.library,
            &self.options,
            Flow::Async,
            &self.cache,
            Some(&mut self.store),
        )
    }
}

/// Dirty marking of one run against a [`CoverStore`]: every cone's shape
/// key (appended into one shared word arena, no per-cone allocation), the
/// cones to cover, and the edit's blast radius over the partition DAG.
pub(crate) struct DirtyMarks {
    scratch: ShapeKeyScratch,
    arena: Vec<u32>,
    ranges: Vec<Range<usize>>,
    /// Cones to cover, in partition order: the first cone of each shape
    /// the store lacks. Later cones of the same new shape reuse its cover.
    pub(crate) misses: Vec<usize>,
    downstream_dirty: usize,
}

impl DirtyMarks {
    pub(crate) fn new(store: &CoverStore, subject: &Network, cones: &[Cone]) -> Self {
        let _t = profile::timer(MapPhase::DirtyMark);
        let mut arena: Vec<u32> = Vec::with_capacity(cones.len() * 12);
        let mut ranges = Vec::with_capacity(cones.len());
        let mut blast = Vec::with_capacity(cones.len());
        let mut scratch = ShapeKeyScratch::new();
        for cone in cones {
            let range = scratch
                .append_key(subject, cone, &mut arena)
                .expect("partition cones are keyable");
            blast.push(!store.contains_key(&arena[range.clone()]));
            ranges.push(range);
        }
        let mut new_shapes: HashSet<&[u32], FxBuildHasher> = HashSet::default();
        let misses = (0..cones.len())
            .filter(|&i| blast[i] && new_shapes.insert(&arena[ranges[i].clone()]))
            .collect();
        let dag = build_partition_dag(cones);
        propagate_dirty(&dag, &mut blast);
        DirtyMarks {
            scratch,
            downstream_dirty: blast.iter().filter(|&&d| d).count(),
            arena,
            ranges,
            misses,
        }
    }

    /// Stores the covers of the missed shapes (`covered`, aligned with
    /// [`DirtyMarks::misses`]) in cone-local coordinates, then stitches
    /// every cone's cover from the store onto this run's signals. The
    /// hazard totals are the stored per-cone counts summed over *all*
    /// cones, exactly what a cold run accumulates.
    pub(crate) fn stitch(
        mut self,
        store: &mut CoverStore,
        subject: &Network,
        cones: &[Cone],
        covered: Vec<(ConeCover, HazardCounts)>,
    ) -> (Vec<ConeCover>, HazardCounts, EcoStats) {
        for (&i, (cover, hazard)) in self.misses.iter().zip(covered) {
            let key = ConeShapeKey::from_words(self.arena[self.ranges[i].clone()].to_vec());
            let stored = localize(&mut self.scratch, subject, &cones[i], &cover, hazard);
            store.insert(key, stored);
        }
        let t = profile::timer(MapPhase::ReuseStitch);
        let (covers, hazard): (Vec<ConeCover>, Vec<HazardCounts>) = cones
            .iter()
            .zip(&self.ranges)
            .map(|(cone, range)| {
                let stored = &store[&self.arena[range.clone()]];
                (delocalize(cone, stored), stored.hazard)
            })
            .unzip();
        drop(t);
        let eco = EcoStats {
            cones_total: cones.len(),
            cones_reused: cones.len() - self.misses.len(),
            cones_remapped: self.misses.len(),
            cones_downstream_dirty: self.downstream_dirty,
            store_entries: store.len(),
        };
        (covers, hazard.into_iter().sum(), eco)
    }
}

fn localize(
    scratch: &mut ShapeKeyScratch,
    subject: &Network,
    cone: &Cone,
    cover: &ConeCover,
    hazard: HazardCounts,
) -> StoredCover {
    assert!(scratch.bind(subject, cone), "partition cones are keyable");
    let local = |s: SignalId| {
        scratch
            .local_ref(s)
            .unwrap_or_else(|| panic!("pin binding {s} escapes the cone"))
    };
    let instances = cover
        .instances
        .iter()
        .map(|inst| {
            let output = local(inst.output);
            assert!(
                output & 1 == 1,
                "instance output {} not a cone gate",
                inst.output
            );
            LocalInstance {
                cell_index: inst.cell_index,
                output: output >> 1,
                inputs: inst.inputs.iter().map(|&s| local(s)).collect(),
            }
        })
        .collect();
    StoredCover {
        instances,
        area: cover.area,
        cut_truncations: cover.cut_truncations,
        hazard,
    }
}

/// Reuse-cache keys of every cone of a design, appended into one word
/// arena through one [`ShapeKeyScratch`]: each cone's canonical shape
/// words extended with the reported area and every instance rewritten
/// into the cone's local space. Two cones with equal words are
/// indistinguishable to any per-cone analysis (equal local gate tree,
/// equal local cover, equal area), so a verdict computed for one
/// transfers to the other verbatim — the reuse argument behind both the
/// lint cache and the fundamental-mode analyzer's cache.
///
/// A cone has no key when some instance binds a signal outside the cone —
/// such a cover's meaning depends on foreign signals the key cannot
/// capture, so it must not be cached (the per-cone walks diagnose it) —
/// or when the cone itself has no positional encoding
/// ([`ShapeKeyScratch::append_key`] refuses it).
#[derive(Debug)]
pub struct CoverKeys {
    arena: Vec<u32>,
    ranges: Vec<Option<Range<usize>>>,
}

impl CoverKeys {
    /// Keys every cone of `design`, paired with its cover by position.
    pub fn new(design: &MappedDesign) -> Self {
        let mut scratch = ShapeKeyScratch::new();
        let mut arena = Vec::with_capacity(design.cones.len() * 24);
        let ranges = design
            .cones
            .iter()
            .zip(&design.covers)
            .map(|(cone, cover)| {
                let start = arena.len();
                let key = scratch.append_key(&design.subject, cone, &mut arena);
                if key.is_some() && append_cover(&scratch, cover, &mut arena).is_some() {
                    Some(start..arena.len())
                } else {
                    arena.truncate(start);
                    None
                }
            })
            .collect();
        CoverKeys { arena, ranges }
    }

    /// The key words of cone `index`, or `None` when it has no key.
    pub fn get(&self, index: usize) -> Option<&[u32]> {
        let range = self.ranges.get(index)?.clone()?;
        Some(&self.arena[range])
    }
}

/// Appends `cover` in the local space of the cone `scratch` is bound to.
fn append_cover(scratch: &ShapeKeyScratch, cover: &ConeCover, out: &mut Vec<u32>) -> Option<()> {
    let area = cover.area.to_bits();
    out.push((area >> 32) as u32);
    out.push(area as u32);
    out.push(scratch.local_ref(cover.root)?);
    out.push(u32::try_from(cover.instances.len()).ok()?);
    for inst in &cover.instances {
        out.push(u32::try_from(inst.cell_index).ok()?);
        out.push(scratch.local_ref(inst.output)?);
        out.push(u32::try_from(inst.inputs.len()).ok()?);
        for &input in &inst.inputs {
            out.push(scratch.local_ref(input)?);
        }
    }
    Some(())
}

/// The cones a checker found clean under one library: the reuse set of
/// the lint and fundamental-mode analysis caches, probed with
/// [`CoverKeys`] words. Fx-hashed: a probe hashes a short word slice, and
/// a hash collision costs a word comparison, never a wrong answer.
#[derive(Debug, Clone, Default)]
pub struct CleanCones {
    library: Option<String>,
    keys: HashSet<Box<[u32]>, FxBuildHasher>,
}

impl CleanCones {
    /// Binds the set to `library`. A set bound to another library (or to
    /// none yet) is emptied and `true` is returned, so the caller can
    /// reset its own library-bound state too.
    pub fn bind(&mut self, library: &Library) -> bool {
        if self.library.as_deref() == Some(library.name()) {
            return false;
        }
        self.library = Some(library.name().to_owned());
        self.keys.clear();
        true
    }

    /// `true` when a cone with these key words was found clean.
    pub fn contains(&self, key: &[u32]) -> bool {
        self.keys.contains(key)
    }

    /// Remembers a cone with these key words as clean.
    pub fn insert(&mut self, key: &[u32]) {
        self.keys.insert(key.into());
    }

    /// Number of distinct clean keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no cone is remembered clean.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

fn delocalize(cone: &Cone, stored: &StoredCover) -> ConeCover {
    ConeCover {
        root: cone.root,
        instances: stored
            .instances
            .iter()
            .map(|li| Instance {
                cell_index: li.cell_index,
                output: cone.gates[li.output as usize],
                inputs: li.inputs.iter().map(|&r| cone.resolve_local(r)).collect(),
            })
            .collect(),
        area: stored.area,
        cut_truncations: stored.cut_truncations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_tmap;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;

    fn fingerprint(d: &MappedDesign) -> (u64, u64, usize, usize) {
        (
            d.area.to_bits(),
            d.delay.to_bits(),
            d.covers.iter().map(|c| c.instances.len()).sum(),
            d.stats.hazard_rejects,
        )
    }

    fn eqs_of(pairs: &[(&str, &str)], names: &[&str]) -> EquationSet {
        let vars = VarTable::from_names(names.iter().copied());
        let equations = pairs
            .iter()
            .map(|(n, t)| ((*n).to_owned(), Cover::parse(t, &vars).unwrap()))
            .collect();
        EquationSet::new(vars, equations)
    }

    fn seq_options() -> MapOptions {
        MapOptions {
            threads: 1,
            ..MapOptions::default()
        }
    }

    #[test]
    fn base_map_matches_cold_map() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let eqs = eqs_of(
            &[("f", "ab + a'c + bc"), ("g", "a'd + bc'd")],
            &["a", "b", "c", "d"],
        );
        let cold = async_tmap(&eqs, &lib, &seq_options()).unwrap();
        let mut session = EcoSession::new(&lib, seq_options());
        let out = session.map(&eqs).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&out.design));
        assert_eq!(cold.stats.hazard_checks, out.design.stats.hazard_checks);
        assert_eq!(out.eco.cones_total, cold.stats.cones);
        assert_eq!(
            out.eco.cones_reused + out.eco.cones_remapped,
            out.eco.cones_total
        );
        assert!(out.design.verify_function(&lib));
        assert!(out.design.verify_hazards(&lib));
    }

    #[test]
    fn edited_remap_matches_cold_map_of_edit() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let base = eqs_of(
            &[
                ("f", "ab + a'c + bc"),
                ("g", "a'd + bc'd"),
                ("h", "cd + ab'"),
            ],
            &["a", "b", "c", "d"],
        );
        let edited = eqs_of(
            &[
                ("f", "ab + a'c + bc"),
                ("g", "a'd + bcd"),
                ("h", "cd + ab'"),
            ],
            &["a", "b", "c", "d"],
        );
        let mut session = EcoSession::new(&lib, seq_options());
        let base_out = session.map(&base).unwrap();
        let eco_out = session.map(&edited).unwrap();
        let cold = async_tmap(&edited, &lib, &seq_options()).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&eco_out.design));
        assert_eq!(cold.stats.hazard_checks, eco_out.design.stats.hazard_checks);
        assert_eq!(cold.stats.buffers, eco_out.design.stats.buffers);
        // Only the edited cone's (new) shape was re-covered.
        assert!(eco_out.eco.cones_reused > 0, "{:?}", eco_out.eco);
        assert!(eco_out.eco.cones_remapped < base_out.eco.cones_total);
        assert!(eco_out.design.verify_function(&lib));
        assert!(eco_out.design.verify_hazards(&lib));
    }

    #[test]
    fn unchanged_remap_reuses_everything() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let eqs = eqs_of(&[("f", "ab + a'c + bc")], &["a", "b", "c"]);
        let mut session = EcoSession::new(&lib, seq_options());
        let first = session.map(&eqs).unwrap();
        let second = session.map(&eqs).unwrap();
        assert_eq!(second.eco.cones_remapped, 0);
        assert_eq!(second.eco.cones_reused, second.eco.cones_total);
        assert_eq!(second.eco.cones_downstream_dirty, 0);
        assert_eq!(fingerprint(&first.design), fingerprint(&second.design));
        // Reuse totals still report the full hazard-filter work a cold
        // run would do (the fingerprint depends on it).
        assert_eq!(
            first.design.stats.hazard_checks,
            second.design.stats.hazard_checks
        );
        assert_eq!(second.design.stats.cones_reused, second.eco.cones_total);
    }

    #[test]
    fn delay_objective_sessions_match_cold() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let opts = MapOptions {
            objective: crate::Objective::Delay,
            threads: 1,
            ..MapOptions::default()
        };
        let eqs = eqs_of(
            &[("f", "ab + c'd"), ("g", "a'b' + cd'")],
            &["a", "b", "c", "d"],
        );
        let cold = async_tmap(&eqs, &lib, &opts).unwrap();
        let mut session = EcoSession::new(&lib, opts);
        let out = session.map(&eqs).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&out.design));
    }
}
