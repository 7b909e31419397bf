//! Layer replays for the traced run: the workload's own write payloads
//! and written sectors, pushed through each layer crate's public API
//! and timed from outside. Every replay checks its own output.

use crate::meter::Capture;
use purity_core::{ArrayConfig, SECTOR};
use purity_dedup::hash::block_hash;
use purity_dedup::index::DedupIndex;
use purity_ecc::ReedSolomon;
use purity_format::Page;
use purity_lsm::Pyramid;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer numbers from one set of replays.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub compress_encode_ns_per_kib: f64,
    pub compress_decode_ns_per_kib: f64,
    pub compress_ratio: f64,
    pub dedup_hash_ns_per_kib: f64,
    pub dedup_index_lookup_ns: f64,
    pub ecc_encode_mb_per_s: f64,
    pub ecc_reconstruct_mb_per_s: f64,
    pub lsm_insert_ns: f64,
    pub lsm_get_ns: f64,
    pub format_page_encode_ns_per_row: f64,
    /// Replay outputs that failed their own check.
    pub failures: Vec<String>,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn per(ns: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

/// Runs every replay on `cap` under the array configuration `cfg`.
pub fn replay(cap: &Capture, cfg: &ArrayConfig) -> LayerReport {
    let mut r = LayerReport::default();
    let bytes: Vec<u8> = cap.payloads.concat();
    let kib = bytes.len() as f64 / 1024.0;

    // compress: the workload's payloads cut to cblock size.
    let cblocks: Vec<&[u8]> = cap
        .payloads
        .iter()
        .flat_map(|p| p.chunks(cfg.max_cblock_bytes))
        .collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = cblocks
        .iter()
        .map(|c| black_box(purity_compress::compress(c)))
        .collect();
    r.compress_encode_ns_per_kib = ns_since(t) / kib.max(1e-9);
    let t = Instant::now();
    let decoded: Vec<_> = encoded
        .iter()
        .map(|e| black_box(purity_compress::decompress(e)))
        .collect();
    r.compress_decode_ns_per_kib = ns_since(t) / kib.max(1e-9);
    if decoded
        .iter()
        .zip(&cblocks)
        .any(|(d, c)| d.as_deref().ok() != Some(*c))
    {
        r.failures
            .push("compress: round trip changed a cblock".into());
    }
    let enc_bytes: usize = encoded.iter().map(Vec::len).sum();
    r.compress_ratio = bytes.len() as f64 / enc_bytes.max(1) as f64;

    // dedup: sector hashes, then the index the write path consults.
    let t = Instant::now();
    let hashes: Vec<u64> = bytes
        .chunks_exact(SECTOR)
        .map(|s| black_box(block_hash(s)))
        .collect();
    r.dedup_hash_ns_per_kib = ns_since(t) / kib.max(1e-9);
    let mut index: DedupIndex<u64> = DedupIndex::new(cfg.dedup_recent_window, cfg.dedup_hot_cache);
    for (i, &h) in hashes.iter().enumerate() {
        index.record_write(h, i as u64);
    }
    let t = Instant::now();
    let found = hashes
        .iter()
        .filter(|&&h| black_box(index.lookup(h)).is_some())
        .count();
    r.dedup_index_lookup_ns = per(ns_since(t), hashes.len() as u64);
    if !hashes.is_empty() && found == 0 {
        r.failures
            .push("dedup: no recorded hash was found again".into());
    }

    // ecc: write-unit shards of the compressed stream, rs_data + rs_parity;
    // the last stripe is zero-padded, as a segment's last write unit is.
    let rs = ReedSolomon::new(cfg.rs_data, cfg.rs_parity);
    let stripe_bytes = cfg.write_unit_bytes * cfg.rs_data;
    let mut stream: Vec<u8> = encoded.concat();
    stream.resize(stream.len().next_multiple_of(stripe_bytes), 0);
    let stripes: Vec<Vec<&[u8]>> = stream
        .chunks_exact(stripe_bytes)
        .map(|s| s.chunks_exact(cfg.write_unit_bytes).collect())
        .collect();
    let t = Instant::now();
    let parities: Vec<Vec<Vec<u8>>> = stripes
        .iter()
        .map(|s| black_box(rs.encode(s).expect("stripe has rs_data equal shards")))
        .collect();
    let data_mb = (stripes.len() * stripe_bytes) as f64 / 1e6;
    r.ecc_encode_mb_per_s = data_mb / (ns_since(t) / 1e9).max(1e-12);
    let t = Instant::now();
    let mut rebuilt_ok = true;
    for (s, p) in stripes.iter().zip(&parities) {
        // Lose data shard 0; rebuild it from the other data shards and parity.
        let avail: Vec<(usize, &[u8])> = s
            .iter()
            .copied()
            .enumerate()
            .skip(1)
            .chain(
                p.iter()
                    .enumerate()
                    .map(|(i, x)| (cfg.rs_data + i, x.as_slice())),
            )
            .collect();
        let got = black_box(rs.reconstruct_one(0, &avail));
        rebuilt_ok &= got.as_deref().ok() == Some(s[0]);
    }
    let shard_mb = (stripes.len() * cfg.write_unit_bytes) as f64 / 1e6;
    r.ecc_reconstruct_mb_per_s = shard_mb / (ns_since(t) / 1e9).max(1e-12);
    if !rebuilt_ok {
        r.failures
            .push("ecc: reconstruction differs from the lost shard".into());
    }

    // lsm: one map fact per sector written, then a lookup of each.
    let mut map: Pyramid<(u64, u64), u64> = Pyramid::new();
    let t = Instant::now();
    for (seq, &key) in cap.sectors.iter().enumerate() {
        map.insert(key, seq as u64, seq as u64 + 1);
    }
    r.lsm_insert_ns = per(ns_since(t), cap.sectors.len() as u64);
    let t = Instant::now();
    let hits = cap
        .sectors
        .iter()
        .filter(|k| black_box(map.get(k)).is_some())
        .count();
    r.lsm_get_ns = per(ns_since(t), cap.sectors.len() as u64);
    if hits != cap.sectors.len() {
        r.failures
            .push("lsm: an inserted fact was not found".into());
    }

    // format: map-fact-shaped rows, 4096 to a page.
    let rows: Vec<Vec<u64>> = cap
        .sectors
        .iter()
        .enumerate()
        .map(|(i, &(vol, sector))| {
            let i = i as u64;
            vec![vol, sector, i / 4096, (i % 4096) * 512, 512, i + 1, 0, 0]
        })
        .collect();
    let t = Instant::now();
    for chunk in rows.chunks(4096) {
        let page = black_box(Page::encode(chunk));
        if page.n_rows() != chunk.len() {
            r.failures.push("format: page lost rows".into());
        }
    }
    r.format_page_encode_ns_per_row = per(ns_since(t), rows.len() as u64);
    r
}
