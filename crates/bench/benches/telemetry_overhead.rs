//! B10 — the cost of the telemetry layer itself.
//!
//! Runs the end-to-end processor pipeline with instrumentation recording
//! on and off (the `xmlsec_telemetry::set_enabled` switch) and asserts
//! the enabled/disabled ratio stays under 1.05: spans, counters and
//! sharded histograms must cost less than 5% of pipeline time, or the
//! observability layer is not "lock-cheap" as designed.
//!
//! Methodology: interleaved batches (on, off, on, off, …) so drift hits
//! both modes equally, median-of-batches for robustness against noise.

use std::hint::black_box;
use std::time::{Duration, Instant};
use xmlsec_core::{AccessRequest, DocumentSource, SecurityProcessor};
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

fn main() {
    let doc = xmlsec_workload::laboratory_scaled(64, 5);
    let xml = serialize(&doc, &SerializeOptions::canonical());
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };

    // Warmup: populate every metric series and fault in the code paths.
    for _ in 0..5 {
        black_box(run_pipeline(&processor, &xml, &request));
    }

    let mut on = Vec::with_capacity(BATCHES);
    let mut off = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        xmlsec_telemetry::set_enabled(true);
        on.push(batch(&processor, &xml, &request));
        xmlsec_telemetry::set_enabled(false);
        off.push(batch(&processor, &xml, &request));
    }
    xmlsec_telemetry::set_enabled(true);

    let on = median(on);
    let off = median(off);
    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-12);
    println!("telemetry_overhead: enabled {on:?}  disabled {off:?}  ratio {ratio:.4}");
    println!(
        "({} batches x {} pipeline runs per mode, interleaved, median)",
        BATCHES, ITERS_PER_BATCH
    );
    assert!(
        ratio < 1.05,
        "instrumentation overhead {:.2}% exceeds the 5% budget (enabled {on:?} vs disabled {off:?})",
        (ratio - 1.0) * 100.0
    );
    println!("PASS: instrumentation overhead {:.2}% < 5%", (ratio - 1.0) * 100.0);
}
