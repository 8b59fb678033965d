//! Trace throughput: synthetic-program generation (records per second)
//! for a single-threaded and a multithreaded benchmark profile, and the
//! `.fadet` read path (ns per record) on a recorded hmmer trace.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fade_system::record_trace_prefix;
use fade_trace::codec::{crc32, encode_chunk, ChunkDecoder};
use fade_trace::file::DEFAULT_CHUNK_RECORDS;
use fade_trace::{bench, encode_trace, SyntheticProgram, TraceMeta, TraceReader};
use std::hint::black_box;
use std::time::Duration;

fn bench_tracegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracegen");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(10_000));

    for name in ["gcc", "omnet", "water"] {
        let profile = bench::by_name(name).unwrap();
        g.bench_function(format!("records_{name}"), |b| {
            let mut prog = SyntheticProgram::new(&profile, 7);
            b.iter(|| {
                for _ in 0..10_000 {
                    black_box(prog.next_record());
                }
            })
        });
    }
    g.finish();
}

/// Records per `Session` pull, as replay drives the reader.
const PULL: usize = 64;

/// The three stages of the `.fadet` read path, each over a whole
/// 100k-record hmmer/AddrCheck trace: the per-chunk CRC-32, the codec's
/// `decode_all`, and `TraceReader` streaming the file bytes in
/// [`PULL`]-record pulls (framing, checksum and decode together).
fn bench_trace_decode(c: &mut Criterion) {
    let profile = bench::by_name("hmmer").unwrap();
    let (records, _) = record_trace_prefix(&profile, "AddrCheck", 11, 100_000);
    let n = records.len();
    let chunks: Vec<(Vec<u8>, usize)> = records
        .chunks(DEFAULT_CHUNK_RECORDS)
        .map(|rs| {
            let mut payload = Vec::new();
            encode_chunk(rs, &mut payload);
            (payload, rs.len())
        })
        .collect();
    let file = encode_trace(&TraceMeta::new(profile.name, 11), &records);

    let mut g = c.benchmark_group("trace_decode");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("crc32", |b| {
        b.iter(|| {
            chunks
                .iter()
                .fold(0, |acc, (p, _)| acc ^ crc32(black_box(p)))
        })
    });
    g.bench_function("decode_all", |b| {
        let mut out = Vec::with_capacity(DEFAULT_CHUNK_RECORDS);
        b.iter(|| {
            for (p, k) in &chunks {
                out.clear();
                ChunkDecoder::new(black_box(p))
                    .decode_all(*k, &mut out)
                    .expect("a valid payload");
            }
            out.len()
        })
    });
    g.bench_function("reader_stream", |b| {
        let mut buf = Vec::with_capacity(PULL);
        b.iter(|| {
            let mut reader = TraceReader::new(black_box(file.as_slice())).expect("a valid trace");
            let mut got = 0;
            loop {
                buf.clear();
                match reader
                    .next_records_into(&mut buf, PULL)
                    .expect("a valid trace")
                {
                    0 => break got,
                    k => got += k,
                }
            }
        })
    });
    g.finish();

    // Per-record summary. `Criterion::results()` exists only on the
    // in-repo criterion shim.
    println!(
        "\n.fadet read path, {n} hmmer records ({:.2} B/record):",
        file.len() as f64 / n as f64
    );
    for s in c
        .results()
        .iter()
        .filter(|s| s.id.starts_with("trace_decode/"))
    {
        println!(
            "  {:<28} {:6.1} ns/record",
            s.id,
            s.median_s * 1e9 / n as f64
        );
    }
}

criterion_group!(benches, bench_tracegen, bench_trace_decode);
criterion_main!(benches);
