//! `tcp_bulk`: byte-verified bulk transfers between two hosts of
//! `net::testkit::TestWorld`, over the campus-WAN link with 8960-byte MSS
//! and 1 MiB buffers and no loss (the regime of `perf`'s `bulk_tcp`). Each
//! event moves about 9 KB, so host time goes to the zero-copy data plane.
//! It never touches cluster, vmm, mpi or lsc.

use crate::stats::{fnv_u64, transfer_ops, FNV_OFFSET};
use crate::trace::{pops, Phases, Spine};
use crate::Trial;
use bytes::Bytes;
use dvc_net::fabric::LinkParams;
use dvc_net::tcp::{SockEvent, SockId, TcpConfig};
use dvc_net::testkit::{drain, local_now, run_until, TestWorld};
use dvc_sim_core::{rng, Sim, SimDuration, SimTime};
use std::time::Instant;

/// Bytes per transfer: about 40 ms of host time on a 2-core Xeon, long
/// enough for one trial to average over the host's short speed swings.
/// At 16 MiB the tail of a 30 s run spread by 23% across seeds.
pub const TRANSFER: usize = 64 << 20;
/// Period of the payload pattern: prime, so it never lines up with the
/// MSS or the send chunk.
const PERIOD: usize = 65_521;
/// Bytes handed to one `send_bytes` call.
const CHUNK: usize = 64 * 1024;

fn config() -> TcpConfig {
    TcpConfig {
        mss: 8960,
        send_buf: 1 << 20,
        recv_buf: 1 << 20,
        ..TcpConfig::default()
    }
}

/// The seeded payload pattern, stored twice over so any window of up to
/// [`PERIOD`] bytes starting inside the first period is one slice.
pub fn pattern(seed: u64) -> Bytes {
    let mut x = rng::derive_seed(seed, "hostbench.tcp_bulk.payload", 0);
    let mut v: Vec<u8> = (0..PERIOD)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect();
    v.extend_from_within(..);
    Bytes::from(v)
}

/// True when `got`, received at stream offset `offset`, matches the
/// pattern byte for byte.
pub fn verify(pattern: &[u8], offset: usize, got: &[u8]) -> bool {
    let mut off = offset % PERIOD;
    got.chunks(PERIOD).all(|c| {
        let ok = c == &pattern[off..off + c.len()];
        off = (off + c.len()) % PERIOD;
        ok
    })
}

fn establish(sim: &mut Sim<TestWorld>) -> (SockId, SockId) {
    let listener = sim.world.hosts[1]
        .tcp
        .listen(7000)
        .expect("port 7000 is free");
    let now = local_now(sim);
    let addr = sim.world.hosts[1].addr;
    let sa = sim.world.hosts[0].tcp.connect(now, addr, 7000);
    drain(sim, 0);
    let incoming = |sim: &Sim<TestWorld>| {
        sim.world.hosts[1]
            .events
            .iter()
            .find_map(|&(s, e)| match e {
                SockEvent::Incoming(n) if s == listener => Some(n),
                _ => None,
            })
    };
    run_until(sim, SimTime::from_secs_f64(10.0), |sim| {
        incoming(sim).is_some()
    });
    (
        sa,
        incoming(sim).expect("handshake completes on a lossless link"),
    )
}

pub fn trial(seed: u64, i: u64, ph: &mut Phases) -> Trial {
    let pattern = pattern(seed);
    let t0 = Instant::now();
    let world = TestWorld::new(2, LinkParams::campus_wan(), config());
    let mut sim = Sim::new(world, rng::derive_seed(seed, "hostbench.tcp_bulk", i));
    let (sa, sb) = establish(&mut sim);
    let setup_s = t0.elapsed().as_secs_f64();
    ph.record(
        "setup",
        (setup_s * 1e9) as u64,
        sim.now().nanos(),
        pops(&sim),
    );
    let spine = ph
        .is_on()
        .then(|| Spine::attach(&mut sim, SimDuration::ZERO));

    let mss = config().mss;
    let (mut sent, mut received, mut mismatched) = (0, 0, false);
    let (mut send_calls, mut recv_calls) = (0u64, 0u64);
    let mut digest = FNV_OFFSET;
    while received < TRANSFER {
        if sent < TRANSFER {
            let start = sent % PERIOD;
            let len = CHUNK.min(TRANSFER - sent);
            let data = pattern.slice(start..start + len.min(PERIOD));
            let m = ph.mark(&sim);
            let now = local_now(&sim);
            let n = sim.world.hosts[0].tcp.send_bytes(now, sa, data);
            ph.close("send", m, &sim);
            send_calls += 1;
            sent += n;
            if n > 0 {
                drain(&mut sim, 0);
            }
        }
        if sim.world.hosts[1].tcp.readable_bytes(sb) > 0 {
            let m = ph.mark(&sim);
            let now = local_now(&sim);
            let got = sim.world.hosts[1].tcp.recv_bytes(now, sb, mss);
            ph.close("recv", m, &sim);
            recv_calls += 1;
            mismatched |= !verify(&pattern, received, &got);
            digest = fnv_u64(digest, got.len() as u64);
            received += got.len();
            drain(&mut sim, 1);
        }
        if received < TRANSFER {
            let m = ph.mark(&sim);
            let stepped = sim.step();
            ph.close("step", m, &sim);
            if !stepped {
                break; // stalled: reported as a short transfer
            }
        }
    }
    let host_s = t0.elapsed().as_secs_f64();

    let mut t = Trial {
        host_s,
        setup_s,
        sim_s: sim.now().as_secs_f64(),
        ops: transfer_ops(TRANSFER, received, mismatched),
        ..Trial::default()
    };
    if t.ops.failed > 0 {
        t.problems.push(format!(
            "transfer {i}: {received} of {TRANSFER} bytes, mismatch {mismatched}"
        ));
    }
    let c = &mut t.counts;
    crate::engine_counts(&sim, c);
    crate::tcp_counts(sim.world.hosts.iter().map(|h| &h.tcp.counters), c);
    crate::fabric_counts(&sim.world.fabric.counters, c);
    c.insert("tcp.send_calls", send_calls);
    c.insert("tcp.recv_calls", recv_calls);
    c.insert("tcp.recv_chunk_digest", digest);
    crate::push_sample(
        &mut t.samples,
        "tcp.host_ns_per_kib",
        host_s * 1e9 / (TRANSFER / 1024) as f64,
    );
    if let Some(spine) = spine {
        spine.read(&sim, &mut t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_the_pattern_at_any_offset() {
        let p = pattern(3);
        for off in [0, 1, PERIOD - 1, PERIOD, 3 * PERIOD + 17] {
            let start = off % PERIOD;
            assert!(verify(&p, off, &p[start..start + 9000]), "offset {off}");
        }
        // Longer than one period: the check wraps around the pattern.
        assert!(verify(&p, 5, &p[5..5 + PERIOD + 100]));
    }

    #[test]
    fn a_corrupted_byte_fails_the_transfer() {
        let p = pattern(3);
        let mut got = p[100..100 + 8960].to_vec();
        assert!(verify(&p, 100, &got));
        got[4321] ^= 0x01;
        assert!(!verify(&p, 100, &got));
        assert_eq!(transfer_ops(8960, 8960, !verify(&p, 100, &got)).failed, 1);
        // The wrong offset is a mismatch too.
        assert!(!verify(&p, 101, &p[100..100 + 8960]));
    }

    #[test]
    fn the_pattern_depends_on_the_seed() {
        assert_eq!(pattern(1), pattern(1));
        assert_ne!(pattern(1), pattern(2));
    }
}
