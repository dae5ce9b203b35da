//! The analyzer's two whole-design evaluators against
//! `MappedDesign::eval_mapped`: the packed rows at every interior point of
//! every specified burst, and the waveform walk's settled endpoints at the
//! burst's start and end.

use asyncmap_burst::{benchmark, benchmark_spec, expand};
use asyncmap_core::{async_tmap, MapOptions, NetlistWalk};
use asyncmap_cube::Bits;
use asyncmap_fma::kernel::{eval_design_packed, eval_design_waves, WalkScratch};
use asyncmap_library::{builtin, Library};

fn check(name: &str, lib: &Library) {
    let design = async_tmap(&benchmark(name), lib, &MapOptions::default()).expect("maps");
    let flow = expand(&benchmark_spec(name)).expect("spec expands");
    let walk = NetlistWalk::new(&design);
    let mut scratch = WalkScratch::new(&walk);
    let at = |what: &str| format!("{name} x {}: {what}", lib.name());
    for f in &flow.functions {
        for t in &f.transitions {
            let waves = eval_design_waves(&walk, lib, &t.start, &t.end, &mut scratch);
            let (start, end) = (
                design.eval_mapped(lib, &t.start),
                design.eval_mapped(lib, &t.end),
            );
            let starts: Vec<bool> = waves.iter().map(|w| w.start).collect();
            let ends: Vec<bool> = waves.iter().map(|w| w.end).collect();
            assert_eq!(starts, start, "{}", at("wave starts"));
            assert_eq!(ends, end, "{}", at("wave ends"));

            let changing: Vec<usize> = t.start.xor(&t.end).iter_ones().collect();
            let points: Vec<Bits> = (1..(1u32 << changing.len().min(8)).saturating_sub(1))
                .map(|mask| {
                    let mut p = t.start.clone();
                    for (bit, &var) in changing.iter().enumerate().take(8) {
                        if mask >> bit & 1 == 1 {
                            p.set(var, t.end.get(var));
                        }
                    }
                    p
                })
                .collect();
            let rows = eval_design_packed(&walk, lib, &points, &mut scratch);
            for (j, p) in points.iter().enumerate() {
                let packed: Vec<bool> = rows
                    .iter()
                    .map(|r| r[j / 64] >> (j % 64) & 1 == 1)
                    .collect();
                assert_eq!(
                    packed,
                    design.eval_mapped(lib, p),
                    "{}",
                    at("interior point")
                );
            }
        }
    }
}

#[test]
fn walks_agree_with_eval_mapped() {
    let libs: [fn() -> Library; 4] = [builtin::lsi9k, builtin::cmos3, builtin::gdt, builtin::actel];
    for lib in libs {
        let mut lib = lib();
        lib.annotate_hazards();
        for name in ["dme", "dme-fast-opt", "pe-send-ifc"] {
            check(name, &lib);
        }
    }
}
