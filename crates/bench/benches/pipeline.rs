//! B7 — the full four-step processor pipeline (parse → label → prune →
//! unparse) plus DTD parse/validate/loosen, per stage and end to end,
//! on a 64-project laboratory document.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xmlsec_core::{AccessRequest, DocumentSource, SecurityProcessor};
use xmlsec_dtd::{loosen, parse_dtd, Validator};
use xmlsec_workload::laboratory::*;
use xmlsec_xml::{parse, serialize, SerializeOptions};

fn pipeline(c: &mut Criterion) {
    let doc = xmlsec_workload::laboratory_scaled(64, 5);
    let xml = serialize(&doc, &SerializeOptions::canonical());
    let dtd = parse_dtd(LAB_DTD).expect("DTD parses");

    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Bytes(xml.len() as u64));

    group.bench_function("step1_parse_xml", |b| b.iter(|| black_box(parse(&xml).expect("parses"))));
    group
        .bench_function("dtd_parse", |b| b.iter(|| black_box(parse_dtd(LAB_DTD).expect("parses"))));
    group.bench_function("dtd_validate", |b| {
        let v = Validator::new(&dtd);
        b.iter(|| black_box(v.validate(&doc).len()))
    });
    group.bench_function("dtd_loosen", |b| b.iter(|| black_box(loosen(&dtd))));
    group.bench_function("step4_unparse", |b| {
        b.iter(|| black_box(serialize(&doc, &SerializeOptions::canonical()).len()))
    });

    // End to end through the processor.
    let processor = SecurityProcessor::new(lab_directory(), lab_authorization_base());
    let request = AccessRequest { requester: tom(), uri: CSLAB_URI.to_string() };
    group.bench_function("end_to_end", |b| {
        b.iter(|| {
            let source = DocumentSource {
                xml: &xml,
                dtd: Some(LAB_DTD),
                dtd_uri: Some(LAB_DTD_URI),
                ..Default::default()
            };
            black_box(processor.process(&request, &source).expect("pipeline").xml.len())
        })
    });
    group.finish();
}

criterion_group!(benches, pipeline);
criterion_main!(benches);
