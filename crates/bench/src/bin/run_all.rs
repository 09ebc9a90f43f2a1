//! Regenerates every figure and table in sequence (the full evaluation).
use ptsim_bench::experiments as exp;

/// An experiment's id and the function that renders its report.
type Section = (&'static str, fn() -> String);

fn main() {
    let sections: [Section; 15] = [
        ("F1", exp::f1_ro_vs_temp::run),
        ("F2", exp::f2_ro_vs_vt::run),
        ("F3", exp::f3_temp_error::run),
        ("F4", exp::f4_vt_error::run),
        ("F5", exp::f5_stack_tracking::run),
        ("F6", exp::f6_tsv_stress::run),
        ("T1", exp::t1_energy::run),
        ("T2", exp::t2_comparison::run),
        ("T3", exp::t3_corners::run),
        ("A1", exp::a1_ablation::run),
        ("X1", exp::x1_pvt2013::run),
        ("X2", exp::x2_aging::run),
        ("X3", exp::x3_placement::run),
        ("R1", exp::r1_faults::run),
        ("R3", exp::r3_dtm::run),
    ];
    for (id, f) in sections {
        println!("{}", "=".repeat(78));
        println!("experiment {id}");
        println!("{}", "=".repeat(78));
        println!("{}", f());
    }
}
