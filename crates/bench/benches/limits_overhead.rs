//! B11 — the cost of resource-limit enforcement itself.
//!
//! Runs the end-to-end processor pipeline with the default resource
//! limits (parser byte/depth/node/entity caps plus the XPath node-visit
//! budget) against the same pipeline with every cap disabled, and
//! asserts the limited/unlimited ratio stays under 1.05: the checks are
//! a handful of integer comparisons on already-hot paths, and must not
//! tax legitimate traffic.
//!
//! Methodology: interleaved batches (limited, unlimited, …) so drift
//! hits both modes equally, median-of-batches for robustness.

use std::hint::black_box;
use std::time::{Duration, Instant};
use xmlsec_core::{
    AccessRequest, DocumentSource, ProcessorOptions, ResourceLimits, SecurityProcessor,
};
use xmlsec_workload::laboratory::*;
use xmlsec_xml::{serialize, SerializeOptions};

const BATCHES: usize = 9;
const ITERS_PER_BATCH: usize = 30;

fn run_pipeline(processor: &SecurityProcessor, xml: &str, request: &AccessRequest) -> usize {
    let source = DocumentSource {
        xml,
        dtd: Some(LAB_DTD),
        dtd_uri: Some(LAB_DTD_URI),
        ..Default::default()
    };
    processor.process(request, &source).expect("pipeline").xml.len()
}

fn batch(processor: &SecurityProcessor, xml: &str, request: &AccessRequest) -> Duration {
    let t = Instant::now();
    for _ in 0..ITERS_PER_BATCH {
        black_box(run_pipeline(processor, xml, request));
    }
    t.elapsed()
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn processor_with(limits: ResourceLimits) -> SecurityProcessor {
    let mut p = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    p.options = ProcessorOptions { limits, ..p.options };
    p
}

fn main() {
    let doc = xmlsec_workload::laboratory_scaled(64, 5);
    let xml = serialize(&doc, &SerializeOptions::canonical());
    let limited = processor_with(ResourceLimits::default_limits());
    let unlimited = processor_with(ResourceLimits::unlimited());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };

    // Warmup both processors.
    for _ in 0..5 {
        black_box(run_pipeline(&limited, &xml, &request));
        black_box(run_pipeline(&unlimited, &xml, &request));
    }

    let mut lim = Vec::with_capacity(BATCHES);
    let mut unl = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        lim.push(batch(&limited, &xml, &request));
        unl.push(batch(&unlimited, &xml, &request));
    }

    let lim = median(lim);
    let unl = median(unl);
    let ratio = lim.as_secs_f64() / unl.as_secs_f64().max(1e-12);
    println!("limits_overhead: limited {lim:?}  unlimited {unl:?}  ratio {ratio:.4}");
    println!(
        "({} batches x {} pipeline runs per mode, interleaved, median)",
        BATCHES, ITERS_PER_BATCH
    );
    assert!(
        ratio < 1.05,
        "limit enforcement overhead {:.2}% exceeds the 5% budget (limited {lim:?} vs unlimited {unl:?})",
        (ratio - 1.0) * 100.0
    );
    println!("PASS: limit enforcement overhead {:.2}% < 5%", (ratio - 1.0) * 100.0);
}
