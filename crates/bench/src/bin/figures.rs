//! Regenerates the paper's figures and worked examples as text, plus a
//! machine-readable JSON report.
//!
//! Usage: `cargo run -p xmlsec-bench --bin figures -- [fig1|fig3|ash|loosen|all]`

use xmlsec_core::{AccessRequest, DocumentSource, SecurityProcessor};
use xmlsec_dtd::{dtd_tree, loosen, parse_dtd, render_dtd_tree, serialize_dtd};
use xmlsec_subjects::{IpPattern, Requester, Subject, SymPattern};
use xmlsec_telemetry as telemetry;
use xmlsec_workload::laboratory::*;
use xmlsec_xml::{parse, render_tree};

struct Report {
    figure1_dtd_elements: usize,
    figure3_nodes_total: usize,
    figure3_nodes_visible_to_tom: usize,
    figure3_view_matches_expected: bool,
    loosened_dtd_accepts_view: bool,
    example1_authorizations: usize,
}

impl Report {
    /// Hand-rolled JSON: every field is a number or a bool, so no
    /// escaping is needed.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"figure1_dtd_elements\": {},\n  \"figure3_nodes_total\": {},\n  \
             \"figure3_nodes_visible_to_tom\": {},\n  \"figure3_view_matches_expected\": {},\n  \
             \"loosened_dtd_accepts_view\": {},\n  \"example1_authorizations\": {}\n}}",
            self.figure1_dtd_elements,
            self.figure3_nodes_total,
            self.figure3_nodes_visible_to_tom,
            self.figure3_view_matches_expected,
            self.loosened_dtd_accepts_view,
            self.example1_authorizations,
        )
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut report = None;
    match arg.as_str() {
        "fig1" => fig1(),
        "fig3" => {
            report = Some(fig3());
        }
        "ash" => ash(),
        "loosen" => loosen_demo(),
        "bench-smoke" => bench_smoke(),
        "all" => {
            fig1();
            ash();
            loosen_demo();
            report = Some(fig3());
        }
        other => {
            eprintln!("unknown figure {other:?}; use fig1|fig3|ash|loosen|bench-smoke|all");
            std::process::exit(2);
        }
    }
    if let Some(r) = report {
        println!("\n== machine-readable report ==\n{}", r.to_json());
    }
}

/// Figure 1: the laboratory DTD (a) and its tree (b).
fn fig1() {
    let dtd = parse_dtd(LAB_DTD).expect("Figure 1(a) DTD parses");
    println!("== Figure 1(a): DTD ==\n{}", serialize_dtd(&dtd));
    let tree = dtd_tree(&dtd, "laboratory").expect("root declared");
    println!("== Figure 1(b): DTD tree ==\n{}", render_dtd_tree(&tree));
}

/// Figure 3: CSlab.xml (a) and Tom's view (b), via the full processor.
fn fig3() -> Report {
    let doc = parse(CSLAB_XML).expect("CSlab.xml parses");
    println!("== Figure 3(a): CSlab.xml ==\n{}", render_tree(&doc));

    println!("== Example 1 authorizations ==");
    for a in example1_authorizations() {
        println!("  {a}");
    }

    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let requester = tom();
    println!("\n== Example 2 requester: {requester} ==");
    let out = processor
        .process(
            &AccessRequest { requester, uri: CSLAB_URI.to_string() },
            &DocumentSource {
                xml: CSLAB_XML,
                dtd: Some(LAB_DTD),
                dtd_uri: Some(LAB_DTD_URI),
                ..Default::default()
            },
        )
        .expect("pipeline runs");
    println!("== Figure 3(b): Tom's view ==\n{}", render_tree(&out.view));

    let expected = parse(TOM_VIEW_XML).expect("expected view parses");
    let matches = out.view.structurally_equal(&expected);
    println!("matches reproduced Figure 3(b): {matches}");

    let loosened =
        parse_dtd(out.loosened_dtd.as_deref().expect("DTD present")).expect("loosened DTD parses");
    let accepts = xmlsec_dtd::validate(&loosened, &out.view).is_empty();

    Report {
        figure1_dtd_elements: parse_dtd(LAB_DTD).expect("parses").elements.len(),
        figure3_nodes_total: doc.count_reachable(),
        figure3_nodes_visible_to_tom: out.view.count_reachable(),
        figure3_view_matches_expected: matches,
        loosened_dtd_accepts_view: accepts,
        example1_authorizations: example1_authorizations().len(),
    }
}

/// §3 worked examples: pattern matching and ASH dominance.
fn ash() {
    println!("== §3: location patterns ==");
    let net: IpPattern = "151.100.*".parse().expect("pattern parses");
    for addr in ["151.100.7.9", "150.100.7.9"] {
        let a: IpPattern = addr.parse().expect("address parses");
        println!("  {net}  matches {addr}: {}", net.matches(&a));
    }
    for (pat, host) in
        [("*.it", "infosys.bld1.it"), ("*.lab.com", "tweety.lab.com"), ("*.lab.com", "lab.com")]
    {
        let p: SymPattern = pat.parse().expect("pattern parses");
        let h: SymPattern = host.parse().expect("host parses");
        println!("  {pat:10} matches {host}: {}", p.matches(&h));
    }

    println!("== §3: ASH dominance for Tom ==");
    let dir = lab_directory();
    let t = Requester::new("Tom", "130.100.50.8", "infosys.bld1.it").expect("requester");
    for (ug, ip, sym) in [
        ("Foreign", "*", "*"),
        ("Public", "*", "*.it"),
        ("Admin", "130.89.56.8", "*"),
        ("Tom", "130.100.*", "*"),
    ] {
        let s = Subject::new(ug, ip, sym).expect("subject");
        println!("  {t} ≤ {s}: {}", t.is_covered_by(&s, &dir));
    }
}

/// One-shot timings of the B1/B5 experiments — a quick shape check
/// without Criterion (absolute numbers are noisy; ratios and slopes are
/// the point). Timings are recorded into the global metrics registry and
/// the table is rendered *from* the registry, so this binary and the
/// server's `/metrics` endpoint share one source of truth.
fn bench_smoke() {
    use std::time::Instant;
    let time = |f: &mut dyn FnMut() -> usize| {
        // One warmup, then best of three.
        f();
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let n = f();
                (t.elapsed(), n)
            })
            .min_by_key(|(d, _)| *d)
            .expect("three samples")
    };
    const SIZES: [usize; 3] = [8, 32, 128];
    const SIZE_LABELS: [&str; 3] = ["8", "32", "128"];
    let reg = telemetry::global();
    let series = |case: &'static str, projects: &'static str| {
        reg.histogram(
            "xmlsec_figures_view_duration_seconds",
            "Best-of-three compute-view wall time in the figures smoke bench.",
            &[("case", case), ("projects", projects)],
            telemetry::Buckets::duration_default(),
        )
    };
    let mut node_counts = Vec::new();
    for (i, &projects) in SIZES.iter().enumerate() {
        let s = xmlsec_bench::lab_scenario(projects);
        node_counts.push(s.doc.count_reachable());
        let (engine, _) = time(&mut || xmlsec_bench::run_view(&s));
        let (naive, _) = time(&mut || xmlsec_bench::run_view_naive(&s));
        series("engine", SIZE_LABELS[i]).observe_duration(engine);
        series("naive", SIZE_LABELS[i]).observe_duration(naive);
    }
    // Render from the registry, not from locals.
    let mean = |case: &'static str, projects: &'static str| {
        let (count, sum) = series(case, projects).totals();
        telemetry::Unit::Nanoseconds.scale(sum as f64) / (count as f64).max(1.0)
    };
    println!("== bench-smoke: B1 view scaling / B5 engine vs naive ==");
    println!("{:>10} {:>8} {:>12} {:>12} {:>8}", "projects", "nodes", "engine", "naive", "ratio");
    for (i, &projects) in SIZES.iter().enumerate() {
        let engine = mean("engine", SIZE_LABELS[i]);
        let naive = mean("naive", SIZE_LABELS[i]);
        println!(
            "{projects:>10} {:>8} {:>12} {:>12} {:>7.1}x",
            node_counts[i],
            format!("{:.3}ms", engine * 1e3),
            format!("{:.3}ms", naive * 1e3),
            naive / engine.max(1e-12)
        );
    }
    println!("(quick shape check; run `cargo bench -p xmlsec-bench` for real numbers)");
}

/// §6.2: the loosening transformation on the laboratory DTD.
fn loosen_demo() {
    let dtd = parse_dtd(LAB_DTD).expect("DTD parses");
    let loosened = loosen(&dtd);
    println!("== §6.2: loosened laboratory DTD ==\n{}", serialize_dtd(&loosened));
}
