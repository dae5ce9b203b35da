//! Structural netlist export: writes a mapped design as a gate-level
//! Verilog module (instances of library cells with named pin connections),
//! the hand-off artifact a downstream place-and-route flow would consume.

use crate::design::MappedDesign;
use asyncmap_library::Library;
use asyncmap_network::SignalId;
use std::fmt::Write as _;

/// Renders `design` as a structural Verilog module named `module_name`.
///
/// Cell pins are connected positionally by their library pin names; every
/// internal signal uses the subject network's generated name. Fanout
/// buffers counted in the design's area are an electrical annotation, not
/// logic, and are emitted as comments.
pub fn to_verilog(design: &MappedDesign, library: &Library, module_name: &str) -> String {
    let net = &design.subject;
    let mut out = String::new();
    let inputs: Vec<&str> = net.inputs().iter().map(|&s| net.input_name(s)).collect();
    let outputs: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(
        out,
        "// mapped by asyncmap (library {}, area {:.0}, delay {:.2})",
        design.library_name, design.area, design.delay
    );
    let _ = writeln!(out, "module {module_name} (");
    let mut ports: Vec<String> = inputs.iter().map(|n| format!("  input  {n}")).collect();
    ports.extend(outputs.iter().map(|n| format!("  output {n}")));
    let _ = writeln!(out, "{}", ports.join(",\n"));
    let _ = writeln!(out, ");");

    // Wire declarations for every instance output that is not a primary
    // output alias.
    let mut declared: Vec<SignalId> = Vec::new();
    for cover in &design.covers {
        for inst in &cover.instances {
            if !declared.contains(&inst.output) {
                declared.push(inst.output);
            }
        }
    }
    for s in &declared {
        let _ = writeln!(out, "  wire {};", net.name(*s));
    }

    let mut counter = 0usize;
    for cover in &design.covers {
        for inst in &cover.instances {
            let cell = &library.cells()[inst.cell_index];
            let pins: Vec<String> = cell
                .pins()
                .iter()
                .zip(&inst.inputs)
                .map(|((_, pin_name), sig)| format!(".{pin_name}({})", net.name(*sig)))
                .collect();
            let _ = writeln!(
                out,
                "  {} u{counter} ({}, .out({}));",
                cell.name(),
                pins.join(", "),
                net.name(inst.output)
            );
            counter += 1;
        }
    }
    if design.stats.buffers > 0 {
        let _ = writeln!(
            out,
            "  // {} fanout buffer(s) accounted in area at multi-fanout cone roots",
            design.stats.buffers
        );
    }
    // Output aliases.
    for (name, sig) in net.outputs() {
        let _ = writeln!(out, "  assign {name} = {};", net.name(*sig));
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{async_tmap, MapOptions};
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::EquationSet;

    fn mapped() -> (MappedDesign, asyncmap_library::Library) {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        (design, lib)
    }

    #[test]
    fn verilog_has_module_ports_and_instances() {
        let (design, lib) = mapped();
        let v = to_verilog(&design, &lib, "demo");
        assert!(v.contains("module demo ("));
        assert!(v.contains("input  a"));
        assert!(v.contains("output f"));
        assert!(v.contains("endmodule"));
        let instances = v.lines().filter(|l| l.contains(" u")).count();
        assert_eq!(instances, design.num_instances());
        assert!(v.contains("assign f ="));
    }

    #[test]
    fn every_instance_connects_all_pins() {
        let (design, lib) = mapped();
        let v = to_verilog(&design, &lib, "demo");
        for cover in &design.covers {
            for inst in &cover.instances {
                let cell = &lib.cells()[inst.cell_index];
                assert_eq!(inst.inputs.len(), cell.num_inputs());
            }
        }
        assert!(v.contains(".out("));
    }
}
