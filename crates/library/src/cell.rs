//! Library cells: named logic functions with a structural Boolean factored
//! form, area/delay parameters and an optional hazard annotation.

use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, VarTable};
use asyncmap_hazard::HazardReport;
use std::fmt;

/// One library element (paper §3.2.1).
///
/// The BFF is the cell's *structure*: for complementary CMOS it abstracts
/// the series-parallel transistor networks, for mux-based FPGA modules the
/// pass-transistor tree. The same function with different BFFs has
/// different hazard behavior (Figure 4), so two such cells are distinct
/// library elements.
#[derive(Debug, Clone)]
pub struct Cell {
    name: String,
    pins: VarTable,
    bff: Expr,
    area: f64,
    delay: f64,
    hazards: Option<HazardReport>,
}

impl Cell {
    /// Creates a cell. `pins` orders the input pins; `bff` is the
    /// structure over those pins.
    ///
    /// # Panics
    ///
    /// Panics if the BFF references a pin outside the table, if the cell
    /// has no pins, or if `area`/`delay` are not positive and finite.
    pub fn new(name: &str, pins: VarTable, bff: Expr, area: f64, delay: f64) -> Self {
        assert!(!pins.is_empty(), "cell {name:?} has no pins");
        assert!(
            area.is_finite() && area > 0.0 && delay.is_finite() && delay > 0.0,
            "cell {name:?} has invalid area/delay"
        );
        if let Some(max) = bff.support().into_iter().max() {
            assert!(
                max.index() < pins.len(),
                "cell {name:?} BFF references undefined pin"
            );
        }
        Cell {
            name: name.to_owned(),
            pins,
            bff,
            area,
            delay,
            hazards: None,
        }
    }

    /// Convenience constructor: parses the BFF and derives the pin order
    /// from first occurrence, with area = literal count (the pulldown
    /// transistor count of a complementary CMOS realization — the paper's
    /// Table 3 area unit).
    ///
    /// # Panics
    ///
    /// Panics if the expression does not parse.
    pub fn from_bff(name: &str, bff_text: &str, delay: f64) -> Self {
        let mut pins = VarTable::new();
        let bff = Expr::parse(bff_text, &mut pins).unwrap_or_else(|e| panic!("cell {name:?}: {e}"));
        let area = f64::from(bff.num_literals());
        Cell::new(name, pins, bff, area, delay)
    }

    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input pin table (pin `i` is BFF variable `i`).
    pub fn pins(&self) -> &VarTable {
        &self.pins
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.pins.len()
    }

    /// The structural Boolean factored form.
    pub fn bff(&self) -> &Expr {
        &self.bff
    }

    /// Area cost.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Intrinsic delay.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// The hazard annotation, if [`Cell::annotate`] has run.
    pub fn hazards(&self) -> Option<&HazardReport> {
        self.hazards.as_ref()
    }

    /// `true` if the cell is known to contain logic hazards.
    ///
    /// # Panics
    ///
    /// Panics if the cell has not been annotated — the asynchronous flow
    /// must never guess.
    pub fn is_hazardous(&self) -> bool {
        !self
            .hazards
            .as_ref()
            .expect("cell not annotated with hazard information")
            .is_hazard_free()
    }

    /// Runs the full hazard characterization of the cell's structure and
    /// stores it (the asynchronous library-initialization step measured in
    /// Table 2).
    pub fn annotate(&mut self) {
        if self.hazards.is_none() {
            self.hazards = Some(self.compute_hazards());
        }
    }

    /// The hazard characterization of the cell's structure, computed
    /// without storing it — lets annotation workers analyze cells through
    /// shared references and commit the results afterwards.
    ///
    /// A read-once BFF (every pin occurs at most once) is certified
    /// hazard-free by structure alone: its report has empty descriptor
    /// lists and the hazard-preserving flattening as `flat`, exactly what
    /// [`asyncmap_hazard::analyze_expr`] returns for it (the read-once
    /// lemma, DESIGN.md §8). Every other structure runs `analyze_expr`.
    pub fn compute_hazards(&self) -> HazardReport {
        let n = self.pins.len();
        if self.bff.is_read_once() {
            HazardReport {
                nvars: n,
                static1: Vec::new(),
                static0: Vec::new(),
                dynamic_mic: Vec::new(),
                dynamic_sic: Vec::new(),
                flat: asyncmap_bff::flatten(&self.bff, n).cover,
            }
        } else {
            asyncmap_hazard::analyze_expr(&self.bff, n)
        }
    }

    /// Stores a hazard report computed by [`Cell::compute_hazards`].
    pub(crate) fn set_hazards(&mut self, report: HazardReport) {
        if self.hazards.is_none() {
            self.hazards = Some(report);
        }
    }

    /// The cell's truth table over its pins (pin `i` = bit `i` of the
    /// row index).
    pub fn truth_table(&self) -> Bits {
        let n = self.pins.len();
        let size = 1usize << n;
        let mut out = Bits::new(size);
        let mut assignment = Bits::new(n);
        for m in 0..size {
            for v in 0..n {
                assignment.set(v, (m >> v) & 1 == 1);
            }
            if self.bff.eval(&assignment) {
                out.set(m, true);
            }
        }
        out
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (area {}, delay {}): {}",
            self.name,
            self.area,
            self.delay,
            self.bff.display(&self.pins)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bff_derives_pins_and_area() {
        let c = Cell::from_bff("AOI21", "(a*b + c)'", 0.5);
        assert_eq!(c.num_inputs(), 3);
        assert_eq!(c.area(), 3.0);
        assert_eq!(c.name(), "AOI21");
        assert!(c.to_string().contains("AOI21"));
    }

    #[test]
    fn truth_table_of_nand2() {
        let c = Cell::from_bff("ND2", "(a*b)'", 0.3);
        let tt = c.truth_table();
        assert!(tt.get(0) && tt.get(1) && tt.get(2) && !tt.get(3));
    }

    #[test]
    fn mux_cell_is_hazardous_after_annotation() {
        let mut mux = Cell::from_bff("MUX2", "s*a + s'*b", 0.6);
        mux.annotate();
        assert!(mux.is_hazardous());
        let mut aoi = Cell::from_bff("AOI21", "(a*b + c)'", 0.4);
        aoi.annotate();
        assert!(!aoi.is_hazardous(), "read-once AOI must be hazard-free");
    }

    #[test]
    #[should_panic(expected = "not annotated")]
    fn unannotated_query_panics() {
        let c = Cell::from_bff("ND2", "(a*b)'", 0.3);
        c.is_hazardous();
    }

    #[test]
    #[should_panic(expected = "invalid area/delay")]
    fn invalid_delay_rejected() {
        let mut pins = VarTable::new();
        let bff = Expr::parse("a", &mut pins).unwrap();
        Cell::new("BUF", pins, bff, 1.0, 0.0);
    }
}
