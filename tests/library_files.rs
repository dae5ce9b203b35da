//! The shipped `libraries/*.lib` text files stay in sync with the built-in
//! libraries and reproduce Table 1 when loaded from disk.

use asyncmap::prelude::*;

fn load(name: &str) -> Library {
    let text = std::fs::read_to_string(format!("libraries/{name}.lib")).unwrap_or_else(|e| {
        panic!("missing libraries/{name}.lib ({e}); run `cargo run --example export_libraries`")
    });
    Library::parse(&text).expect("shipped library must parse")
}

#[test]
fn shipped_files_match_builtins() {
    for builtin in asyncmap::library::builtin::all_libraries() {
        let from_disk = load(&builtin.name().to_lowercase());
        assert_eq!(from_disk.name(), builtin.name());
        assert_eq!(from_disk.len(), builtin.len());
        for cell in builtin.cells() {
            let loaded = from_disk
                .cell(cell.name())
                .unwrap_or_else(|| panic!("{}: cell {} missing", builtin.name(), cell.name()));
            assert_eq!(loaded.num_inputs(), cell.num_inputs());
            assert_eq!(loaded.truth_table(), cell.truth_table());
            assert!((loaded.area() - cell.area()).abs() < 1e-9);
        }
    }
}

#[test]
fn shipped_files_reproduce_table1() {
    let expect = [("lsi9k", 12usize), ("cmos3", 1), ("gdt", 0), ("actel", 24)];
    for (name, hazardous) in expect {
        let mut lib = load(name);
        lib.annotate_hazards();
        assert_eq!(lib.hazardous_cells().len(), hazardous, "{name}");
    }
}

/// The read-once certificate and the per-structure sharing change no
/// report: on every cell of the built-ins, the shipped files and the genlib
/// fixture, `compute_hazards` and `Library::characterize` return exactly
/// what the full analysis returns, and cells with one structure get one
/// report.
#[test]
fn every_shipped_cell_characterizes_as_the_full_analysis() {
    let mut libs = asyncmap::library::builtin::all_libraries();
    libs.extend(["lsi9k", "cmos3", "gdt", "actel"].map(load));
    let genlib = std::fs::read_to_string("tests/fixtures/mcnc_like.genlib").unwrap();
    libs.push(
        asyncmap::genlib::parse_genlib(&genlib, "mcnc_like")
            .unwrap()
            .to_library(),
    );
    for lib in &libs {
        let shared: Vec<String> = lib
            .characterize()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let cells = lib.cells();
        for (i, cell) in cells.iter().enumerate() {
            let full = format!("{:?}", analyze_expr(cell.bff(), cell.num_inputs()));
            let what = format!("{} / {}", lib.name(), cell.name());
            assert_eq!(format!("{:?}", cell.compute_hazards()), full, "{what}");
            assert_eq!(shared[i], full, "{what}");
            for (j, other) in cells.iter().enumerate().skip(i + 1) {
                if other.bff() == cell.bff() && other.num_inputs() == cell.num_inputs() {
                    assert_eq!(shared[i], shared[j], "{what} / {}", other.name());
                }
            }
        }
    }
}
