//! Cell libraries: collections of [`Cell`]s with load-time hazard
//! annotation (the asynchronous mapper's extra initialization step,
//! Table 2) and a small text format.

use crate::Cell;
use asyncmap_bff::Expr;
use asyncmap_hazard::HazardReport;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A technology library.
#[derive(Debug, Clone, Default)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    annotated: bool,
}

impl Library {
    /// Creates an empty library called `name`.
    pub fn new(name: &str) -> Self {
        Library {
            name: name.to_owned(),
            cells: Vec::new(),
            annotated: false,
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a cell.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists.
    pub fn add(&mut self, cell: Cell) {
        assert!(
            self.cell(cell.name()).is_none(),
            "duplicate cell {:?} in library {:?}",
            cell.name(),
            self.name
        );
        self.annotated = false;
        self.cells.push(cell);
    }

    /// The cells, in insertion order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name() == name)
    }

    /// Annotates every cell with its hazard characterization — the extra
    /// work the asynchronous mapper does when reading a library
    /// (paper §3.2, Table 2). Idempotent.
    ///
    /// The not-yet-annotated cells go through the same per-structure pass
    /// as [`Library::characterize`]: each distinct `(BFF, pin count)` is
    /// characterized once and its report copied to every cell sharing it.
    /// # Examples
    ///
    /// ```
    /// let mut lib = asyncmap_library::builtin::lsi9k();
    /// lib.annotate_hazards();
    /// assert_eq!(lib.hazardous_cells().len(), 12); // the muxes (Table 1)
    /// ```
    pub fn annotate_hazards(&mut self) {
        let pending: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].hazards().is_none())
            .collect();
        if !pending.is_empty() {
            let reports = characterize_cells(&self.cells, &pending);
            for (i, report) in pending.into_iter().zip(reports) {
                self.cells[i].set_hazards(report);
            }
        }
        self.annotated = true;
    }

    /// Every cell's hazard characterization (in insertion order), computed
    /// afresh, ignoring any stored annotation, once per distinct
    /// `(BFF, pin count)` structure (`_X2`/`_X4` drive-strength copies get
    /// a copy of their base cell's report).
    ///
    /// Read-once structures are certified in one tree pass
    /// ([`Cell::compute_hazards`]). The remaining structures vary strongly
    /// in cost with pin count, so they are spread over the available cores:
    /// workers claim structures from a lock-free atomic counter and the
    /// reports are committed index by index afterwards.
    ///
    /// # Examples
    ///
    /// ```
    /// let lib = asyncmap_library::builtin::gdt();
    /// let reports = lib.characterize();
    /// assert_eq!(reports.len(), lib.len());
    /// assert!(reports.iter().all(|r| r.is_hazard_free())); // Table 1
    /// ```
    pub fn characterize(&self) -> Vec<HazardReport> {
        let all: Vec<usize> = (0..self.cells.len()).collect();
        characterize_cells(&self.cells, &all)
    }

    /// `true` once [`Library::annotate_hazards`] has run.
    pub fn is_annotated(&self) -> bool {
        self.annotated
    }

    /// The hazardous cells (requires annotation) — the content of the
    /// paper's Table 1.
    ///
    /// # Panics
    ///
    /// Panics if the library is not annotated.
    pub fn hazardous_cells(&self) -> Vec<&Cell> {
        assert!(self.annotated, "library {:?} not annotated", self.name);
        self.cells.iter().filter(|c| c.is_hazardous()).collect()
    }

    /// Parses the text format:
    ///
    /// ```text
    /// library LSI9K
    /// # comment
    /// cell ND2 delay=0.3 bff=(a*b)'
    /// cell MUX2 delay=0.6 area=12 bff=s*a + s'*b
    /// ```
    ///
    /// `area` defaults to the BFF literal count; `bff=` consumes the rest
    /// of the line.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed lines, duplicate cells or missing
    /// header.
    pub fn parse(text: &str) -> Result<Library, ParseLibraryError> {
        let mut lib: Option<Library> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| ParseLibraryError {
                line: lineno + 1,
                message: msg,
            };
            if let Some(rest) = line.strip_prefix("library ") {
                if lib.is_some() {
                    return Err(err("duplicate library header".into()));
                }
                lib = Some(Library::new(rest.trim()));
                continue;
            }
            let Some(rest) = line.strip_prefix("cell ") else {
                return Err(err(format!("unrecognized line {line:?}")));
            };
            let lib = lib
                .as_mut()
                .ok_or_else(|| err("cell before library header".into()))?;
            let (head, bff_text) = rest
                .split_once("bff=")
                .ok_or_else(|| err("missing bff= field".into()))?;
            let mut head_tokens = head.split_whitespace();
            let name = head_tokens
                .next()
                .ok_or_else(|| err("missing cell name".into()))?;
            let mut delay: Option<f64> = None;
            let mut area: Option<f64> = None;
            for tok in head_tokens {
                if let Some(v) = tok.strip_prefix("delay=") {
                    delay = Some(v.parse().map_err(|e| err(format!("bad delay: {e}")))?);
                } else if let Some(v) = tok.strip_prefix("area=") {
                    area = Some(v.parse().map_err(|e| err(format!("bad area: {e}")))?);
                } else {
                    return Err(err(format!("unknown field {tok:?}")));
                }
            }
            let delay = delay.ok_or_else(|| err(format!("cell {name:?} missing delay")))?;
            if lib.cell(name).is_some() {
                return Err(err(format!("duplicate cell {name:?}")));
            }
            let mut pins = asyncmap_cube::VarTable::new();
            let bff = asyncmap_bff::Expr::parse(bff_text.trim(), &mut pins)
                .map_err(|e| err(format!("cell {name:?}: {e}")))?;
            let area = area.unwrap_or_else(|| f64::from(bff.num_literals()));
            lib.add(Cell::new(name, pins, bff, area, delay));
        }
        lib.ok_or(ParseLibraryError {
            line: 0,
            message: "missing library header".into(),
        })
    }

    /// Serializes to the text format accepted by [`Library::parse`].
    pub fn to_text(&self) -> String {
        let mut out = format!("library {}\n", self.name);
        for c in &self.cells {
            out.push_str(&format!(
                "cell {} delay={} area={} bff={}\n",
                c.name(),
                c.delay(),
                c.area(),
                c.bff().display(c.pins())
            ));
        }
        out
    }
}

/// The reports of `cells[i]` for every `i` in `picked`, computed once per
/// distinct `(BFF, pin count)`; the structures the read-once certificate
/// does not decide run on a worker pool.
fn characterize_cells(cells: &[Cell], picked: &[usize]) -> Vec<HazardReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut index: HashMap<(&Expr, usize), usize> = HashMap::new();
    let mut structure = Vec::with_capacity(picked.len());
    let mut reports: Vec<Option<HazardReport>> = Vec::new();
    // (structure, representative cell) of each structure left to analyze.
    let mut undecided: Vec<(usize, usize)> = Vec::new();
    for &i in picked {
        let cell = &cells[i];
        let fresh = reports.len();
        let s = *index
            .entry((cell.bff(), cell.num_inputs()))
            .or_insert(fresh);
        if s == fresh {
            if cell.bff().is_read_once() {
                reports.push(Some(cell.compute_hazards()));
            } else {
                reports.push(None);
                undecided.push((s, i));
            }
        }
        structure.push(s);
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(undecided.len());
    if threads <= 1 {
        for &(s, i) in &undecided {
            reports[s] = Some(cells[i].compute_hazards());
        }
    } else {
        let next = AtomicUsize::new(0);
        let analyzed: Vec<(usize, HazardReport)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(s, i)) = undecided.get(k) else {
                                break;
                            };
                            local.push((s, cells[i].compute_hazards()));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("characterization worker panicked"))
                .collect()
        });
        for (s, report) in analyzed {
            reports[s] = Some(report);
        }
    }
    let reports: Vec<HazardReport> = reports
        .into_iter()
        .map(|r| r.expect("every structure characterized"))
        .collect();
    structure.into_iter().map(|s| reports[s].clone()).collect()
}

/// Error produced when library parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLibraryError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "library parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseLibraryError {}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
library TEST
# two plain gates and a mux
cell INV delay=0.2 bff=a'
cell ND2 delay=0.3 bff=(a*b)'
cell MUX2 delay=0.6 area=12 bff=s*a + s'*b
";

    #[test]
    fn parse_roundtrip() {
        let lib = Library::parse(SAMPLE).unwrap();
        assert_eq!(lib.name(), "TEST");
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.cell("MUX2").unwrap().area(), 12.0);
        assert_eq!(lib.cell("ND2").unwrap().area(), 2.0);
        let again = Library::parse(&lib.to_text()).unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(again.cell("MUX2").unwrap().num_inputs(), 3);
    }

    #[test]
    fn annotation_finds_the_mux() {
        let mut lib = Library::parse(SAMPLE).unwrap();
        assert!(!lib.is_annotated());
        lib.annotate_hazards();
        assert!(lib.is_annotated());
        let hazardous = lib.hazardous_cells();
        assert_eq!(hazardous.len(), 1);
        assert_eq!(hazardous[0].name(), "MUX2");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Library::parse("library X\ncell BAD delay=0.1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bff="));
        let err2 = Library::parse("cell A delay=1 bff=a\n").unwrap_err();
        assert!(err2.message.contains("before library header"));
        let err3 = Library::parse("").unwrap_err();
        assert!(err3.message.contains("missing library header"));
    }

    #[test]
    fn duplicate_cells_rejected() {
        let text = "library X\ncell A delay=1 bff=a\ncell A delay=1 bff=a'\n";
        assert!(Library::parse(text).is_err());
    }

    #[test]
    #[should_panic(expected = "not annotated")]
    fn hazardous_cells_requires_annotation() {
        let lib = Library::parse(SAMPLE).unwrap();
        lib.hazardous_cells();
    }
}
