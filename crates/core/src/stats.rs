//! Execution statistics: everything the paper's evaluation section reports.

use gr_observe::WallSummary;
use gr_sim::SimDuration;

/// Per-iteration record (drives Figures 3, 16, 17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Active vertices entering the iteration (the frontier size).
    pub frontier_size: u64,
    /// In-edges gathered.
    pub gathered_edges: u64,
    /// Vertices whose apply reported a change.
    pub changed: u64,
    /// Vertices newly activated for the next iteration.
    pub activated: u64,
    /// Shards processed in the gather/apply stage.
    pub shards_processed: u32,
    /// Shards skipped by dynamic frontier management.
    pub shards_skipped: u32,
}

// Snapshots carry the whole trace in this fixed-width layout.
crate::impl_state_bytes!(IterationStats {
    frontier_size: u64,
    gathered_edges: u64,
    changed: u64,
    activated: u64,
    shards_processed: u32,
    shards_skipped: u32,
});

/// Whole-run statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Program name.
    pub algorithm: &'static str,
    /// Iterations executed (until frontier exhaustion or the cap).
    pub iterations: u32,
    /// Total virtual wall time, including init and final transfers.
    pub elapsed: SimDuration,
    /// Copy-engine busy time (the paper's "memcpy time", Figure 15).
    pub memcpy_time: SimDuration,
    /// Kernel-slot busy time.
    pub kernel_time: SimDuration,
    /// Bytes moved host-to-device.
    pub bytes_h2d: u64,
    /// Bytes moved device-to-host.
    pub bytes_d2h: u64,
    /// Copy operations issued.
    pub copy_ops: u64,
    /// Kernel launches issued.
    pub kernel_launches: u64,
    /// Shard copy cycles avoided by frontier management.
    pub skipped_shard_copies: u64,
    /// Kernel launches avoided by frontier management.
    pub skipped_kernel_launches: u64,
    /// Shard count `P`.
    pub num_shards: usize,
    /// Concurrency `K`.
    pub concurrent_shards: u32,
    /// Whether the run executed fully device-resident.
    pub all_resident: bool,
    /// Injected device faults encountered (0 without a fault plan).
    pub faults_injected: u64,
    /// Per-op retries the recovery policy issued (backoff charged as time).
    pub recovered_retries: u64,
    /// Iteration rollback-and-replays after exhausted retries.
    pub rollbacks: u64,
    /// Full-state checkpoints taken (0 whenever no fault plan is armed —
    /// the disarmed path must not pay the clone).
    pub checkpoints: u64,
    /// Whether the run finished on the host CPU after permanent device loss.
    pub host_fallback: bool,
    /// Memory-governor pressure responses (host-run, residency drop,
    /// concurrency cut, per-shard host fallback). 0 when unconstrained.
    pub mem_pressure_events: u64,
    /// Adaptive shard splits the governor performed at plan time.
    pub shard_splits: u64,
    /// Shards whose transfers stream through the bounded staging slot.
    pub chunked_shards: u64,
    /// Individual chunked copy operations issued over the run.
    pub chunked_copies: u64,
    /// Shards degraded to host-CPU execution by the governor.
    pub host_shards: u64,
    /// Device-memory high-water mark (bytes) over the run.
    pub mem_peak: u64,
    /// Low-water mark of free device bytes (headroom) over the run.
    pub mem_min_headroom: u64,
    /// Durable snapshots written to disk (0 unless
    /// [`CheckpointPolicy::Durable`](crate::CheckpointPolicy) is armed).
    pub checkpoint_writes: u64,
    /// Total bytes of durable snapshots written (on-disk bytes, after
    /// any snapshot compression).
    pub checkpoint_bytes_written: u64,
    /// On-disk bytes of *full* snapshots (all of
    /// [`RunStats::checkpoint_bytes_written`] unless delta mode is on).
    pub checkpoint_full_bytes: u64,
    /// Delta snapshots written (0 unless
    /// [`CheckpointPolicy::DurableDelta`](crate::CheckpointPolicy) is armed).
    pub checkpoint_delta_writes: u64,
    /// On-disk bytes of delta snapshots.
    pub checkpoint_delta_bytes: u64,
    /// Pre-compression encoded snapshot bytes (equals
    /// [`RunStats::checkpoint_bytes_written`] without a snapshot codec).
    pub checkpoint_raw_bytes: u64,
    /// Durable snapshot restores (1 on a resumed run, else 0).
    pub checkpoint_restores: u64,
    /// Checkpoint writes skipped after storage-retry exhaustion (the
    /// run continues, covered by the previous snapshot).
    pub checkpoints_skipped: u64,
    /// Storage-op retries after injected or real I/O faults on the
    /// spill/checkpoint path (0 without I/O faults).
    pub storage_retries: u64,
    /// Spill reads that exhausted retries and re-streamed the shard
    /// from the source graph instead.
    pub spill_restreams: u64,
    /// Shards evicted to the configured [`ShardStore`](crate::ShardStore)
    /// (out-of-host-core spill). 0 without a store.
    pub spilled_shards: u64,
    /// Total payload bytes spilled to the store.
    pub spilled_bytes: u64,
    /// Spilled-shard payloads read back (first touch per shard).
    pub spill_loads: u64,
    /// Total payload bytes read back from the store.
    pub spill_load_bytes: u64,
    /// Codec name when shard compression was armed
    /// ([`Options::with_shard_compression`](crate::Options)), else `None`.
    pub compression_codec: Option<&'static str>,
    /// Total compressed buffer-set bytes across shards (what actually
    /// ships per full sweep). 0 without compression.
    pub compressed_bytes: u64,
    /// What the raw buffer sets would have shipped instead — the
    /// numerator of [`RunStats::compression_ratio`].
    pub compressed_raw_bytes: u64,
    /// On-device decode kernels launched (one per topology stream-in).
    pub decompress_launches: u64,
    /// Order-independent FNV-1a hash of the final vertex values, for
    /// cheap bit-identity comparison across kill-restart and spill runs.
    /// `None` unless durability or spill was armed.
    pub state_fingerprint: Option<u64>,
    /// Real host wall-clock attribution (`None` unless a
    /// [`WallProfiler`](gr_observe::WallProfiler) was armed via
    /// `GraphReduce::with_wall_profiler` — the simulated numbers above
    /// are unaffected either way).
    pub wall: Option<WallSummary>,
    /// Per-iteration trace.
    pub per_iteration: Vec<IterationStats>,
}

impl RunStats {
    /// Frontier size per iteration (Figure 3 / 16 series).
    pub fn frontier_sizes(&self) -> Vec<u64> {
        self.per_iteration.iter().map(|i| i.frontier_size).collect()
    }

    /// Peak frontier size over the run.
    pub fn max_frontier(&self) -> u64 {
        self.per_iteration
            .iter()
            .map(|i| i.frontier_size)
            .max()
            .unwrap_or(0)
    }

    /// Figure 17's metric: percentage of iterations whose frontier is below
    /// 50% of the lifetime maximum.
    pub fn pct_iterations_below_half_max(&self) -> f64 {
        if self.per_iteration.is_empty() {
            return 0.0;
        }
        let half = self.max_frontier() as f64 / 2.0;
        let below = self
            .per_iteration
            .iter()
            .filter(|i| (i.frontier_size as f64) < half)
            .count();
        100.0 * below as f64 / self.per_iteration.len() as f64
    }

    /// Total memory-governor decisions over the run (pressure responses +
    /// shard splits + chunked shards). 0 whenever capacity was ample.
    pub fn governor_decisions(&self) -> u64 {
        self.mem_pressure_events + self.shard_splits + self.chunked_shards
    }

    /// Raw-over-compressed shard byte ratio (e.g. 4.0 = shards shrank
    /// 4x on the wire). `None` when compression was off or shipped
    /// nothing.
    pub fn compression_ratio(&self) -> Option<f64> {
        (self.compression_codec.is_some() && self.compressed_bytes > 0)
            .then(|| self.compressed_raw_bytes as f64 / self.compressed_bytes as f64)
    }

    /// Fraction of wall time the copy engines were busy (the paper reports
    /// ~95% for unoptimized out-of-memory runs).
    pub fn memcpy_share(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.memcpy_time.as_secs_f64() / self.elapsed.as_secs_f64()
    }
}

impl std::fmt::Display for RunStats {
    /// Multi-line human-readable run report (used by examples and the
    /// `run` CLI).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} iterations in {} ({} shards, K={}, {})",
            self.algorithm,
            self.iterations,
            self.elapsed,
            self.num_shards,
            self.concurrent_shards,
            if self.all_resident {
                "device-resident"
            } else {
                "streamed out-of-core"
            }
        )?;
        writeln!(
            f,
            "  memcpy busy {} ({:.1}% of run) | kernels busy {}",
            self.memcpy_time,
            100.0 * self.memcpy_share(),
            self.kernel_time
        )?;
        writeln!(
            f,
            "  PCIe: {:.2} MB in / {:.2} MB out over {} copies; {} kernel launches",
            self.bytes_h2d as f64 / 1e6,
            self.bytes_d2h as f64 / 1e6,
            self.copy_ops,
            self.kernel_launches
        )?;
        write!(
            f,
            "  frontier: peak {} | {:.0}% of iterations below half-peak | skipped {} copies, {} launches",
            self.max_frontier(),
            self.pct_iterations_below_half_max(),
            self.skipped_shard_copies,
            self.skipped_kernel_launches
        )?;
        // Fault-free output stays byte-identical: the recovery line only
        // appears when something was actually injected or recovered.
        if self.faults_injected > 0 || self.host_fallback {
            write!(
                f,
                "\n  faults: {} injected | {} retries, {} rollbacks{}",
                self.faults_injected,
                self.recovered_retries,
                self.rollbacks,
                if self.host_fallback {
                    " | finished on host CPU"
                } else {
                    ""
                }
            )?;
        }
        // Same rule for the governor: unconstrained output is untouched.
        if self.governor_decisions() > 0 {
            write!(
                f,
                "\n  memory: {} pressure responses | {} shard splits, {} chunked shards \
                 ({} chunked copies), {} host shards | peak {} B, min headroom {} B",
                self.mem_pressure_events,
                self.shard_splits,
                self.chunked_shards,
                self.chunked_copies,
                self.host_shards,
                self.mem_peak,
                self.mem_min_headroom
            )?;
        }
        // Durability is opt-in twice over: the line appears only when a
        // durable policy, a resume, or a spill store actually did work.
        if self.checkpoint_writes > 0
            || self.checkpoint_restores > 0
            || self.spilled_shards > 0
            || self.checkpoints_skipped > 0
        {
            write!(
                f,
                "\n  durability: {} snapshots ({:.2} MB) written, {} restored | \
                 {} shards spilled ({:.2} MB), {} loaded back ({:.2} MB)",
                self.checkpoint_writes,
                self.checkpoint_bytes_written as f64 / 1e6,
                self.checkpoint_restores,
                self.spilled_shards,
                self.spilled_bytes as f64 / 1e6,
                self.spill_loads,
                self.spill_load_bytes as f64 / 1e6
            )?;
            // Delta mode adds the full-vs-delta byte split; full-only
            // durable runs keep the exact line they always printed.
            if self.checkpoint_delta_writes > 0 {
                write!(
                    f,
                    " | {:.2} MB full + {} deltas ({:.2} MB)",
                    self.checkpoint_full_bytes as f64 / 1e6,
                    self.checkpoint_delta_writes,
                    self.checkpoint_delta_bytes as f64 / 1e6
                )?;
            }
            if let Some(fp) = self.state_fingerprint {
                write!(f, "\n  state fingerprint: {fp:#018x}")?;
            }
        }
        // Storage-fault handling is its own conditional line: fault-free
        // durable runs stay byte-identical.
        if self.storage_retries > 0 || self.checkpoints_skipped > 0 || self.spill_restreams > 0 {
            write!(
                f,
                "\n  storage faults: {} retries | {} checkpoints skipped, {} spill re-streams",
                self.storage_retries, self.checkpoints_skipped, self.spill_restreams
            )?;
        }
        // Compression is opt-in: uncompressed output stays byte-identical.
        if let Some(codec) = self.compression_codec {
            write!(
                f,
                "\n  compression: {codec} | shards {:.2} MB -> {:.2} MB{} | {} decompress launches",
                self.compressed_raw_bytes as f64 / 1e6,
                self.compressed_bytes as f64 / 1e6,
                match self.compression_ratio() {
                    Some(r) => format!(" ({r:.2}x)"),
                    None => String::new(),
                },
                self.decompress_launches
            )?;
        }
        // And for the wall profile: runs without an armed profiler print
        // exactly what they always printed.
        if let Some(w) = &self.wall {
            write!(f, "\n  host wall: {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(frontier: u64) -> IterationStats {
        IterationStats {
            frontier_size: frontier,
            ..Default::default()
        }
    }

    #[test]
    fn frontier_metrics() {
        let s = RunStats {
            per_iteration: vec![iter(1), iter(10), iter(100), iter(40), iter(4)],
            ..Default::default()
        };
        assert_eq!(s.max_frontier(), 100);
        assert_eq!(s.frontier_sizes(), vec![1, 10, 100, 40, 4]);
        // Below 50 (half of 100): 1, 10, 40, 4 -> 4 of 5.
        assert!((s.pct_iterations_below_half_max() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_safe() {
        let s = RunStats::default();
        assert_eq!(s.max_frontier(), 0);
        assert_eq!(s.pct_iterations_below_half_max(), 0.0);
        assert_eq!(s.memcpy_share(), 0.0);
    }

    #[test]
    fn fault_line_only_appears_when_faults_were_injected() {
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("faults:"), "{clean}");
        let faulted = RunStats {
            faults_injected: 3,
            recovered_retries: 2,
            rollbacks: 1,
            ..Default::default()
        }
        .to_string();
        assert!(faulted.contains("faults: 3 injected | 2 retries, 1 rollbacks"));
        assert!(!faulted.contains("host CPU"));
        let fell_back = RunStats {
            faults_injected: 1,
            host_fallback: true,
            ..Default::default()
        }
        .to_string();
        assert!(fell_back.contains("finished on host CPU"));
    }

    #[test]
    fn memory_line_only_appears_under_governor_pressure() {
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("memory:"), "{clean}");
        let governed = RunStats {
            mem_pressure_events: 1,
            shard_splits: 2,
            chunked_shards: 1,
            chunked_copies: 12,
            mem_peak: 4096,
            mem_min_headroom: 128,
            ..Default::default()
        }
        .to_string();
        assert!(governed.contains("memory: 1 pressure responses"));
        assert!(governed.contains("2 shard splits, 1 chunked shards"));
        assert!(governed.contains("peak 4096 B, min headroom 128 B"));
    }

    #[test]
    fn durability_line_only_appears_when_durability_did_work() {
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("durability:"), "{clean}");
        let durable = RunStats {
            checkpoint_writes: 3,
            checkpoint_bytes_written: 2_000_000,
            checkpoint_restores: 1,
            spilled_shards: 4,
            spilled_bytes: 8_000_000,
            spill_loads: 2,
            spill_load_bytes: 4_000_000,
            state_fingerprint: Some(0xdead_beef),
            ..Default::default()
        }
        .to_string();
        assert!(
            durable.contains("durability: 3 snapshots (2.00 MB) written, 1 restored"),
            "{durable}"
        );
        assert!(durable.contains("4 shards spilled (8.00 MB), 2 loaded back (4.00 MB)"));
        assert!(durable.contains("state fingerprint: 0x00000000deadbeef"));
        assert!(!durable.contains("deltas"), "full-only line is unchanged");
        assert!(!durable.contains("storage faults:"), "{durable}");
    }

    #[test]
    fn delta_split_and_storage_fault_lines_are_conditional() {
        let delta = RunStats {
            checkpoint_writes: 5,
            checkpoint_bytes_written: 3_000_000,
            checkpoint_full_bytes: 2_000_000,
            checkpoint_delta_writes: 3,
            checkpoint_delta_bytes: 1_000_000,
            ..Default::default()
        }
        .to_string();
        assert!(
            delta.contains("2.00 MB full + 3 deltas (1.00 MB)"),
            "{delta}"
        );
        let faulted = RunStats {
            checkpoint_writes: 2,
            storage_retries: 4,
            checkpoints_skipped: 1,
            spill_restreams: 1,
            ..Default::default()
        }
        .to_string();
        assert!(
            faulted
                .contains("storage faults: 4 retries | 1 checkpoints skipped, 1 spill re-streams"),
            "{faulted}"
        );
        let skipped_only = RunStats {
            checkpoints_skipped: 1,
            ..Default::default()
        }
        .to_string();
        assert!(
            skipped_only.contains("durability: 0 snapshots"),
            "skipped checkpoints surface the durability line: {skipped_only}"
        );
    }

    #[test]
    fn compression_line_only_appears_when_compression_was_armed() {
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("compression:"), "{clean}");
        assert_eq!(RunStats::default().compression_ratio(), None);
        let compressed = RunStats {
            compression_codec: Some("zeta3"),
            compressed_raw_bytes: 12_000_000,
            compressed_bytes: 3_000_000,
            decompress_launches: 16,
            ..Default::default()
        };
        assert!((compressed.compression_ratio().unwrap() - 4.0).abs() < 1e-9);
        let line = compressed.to_string();
        assert!(
            line.contains("compression: zeta3 | shards 12.00 MB -> 3.00 MB (4.00x)"),
            "{line}"
        );
        assert!(line.contains("16 decompress launches"));
    }

    #[test]
    fn wall_line_only_appears_when_a_profiler_was_armed() {
        let clean = RunStats::default().to_string();
        assert!(!clean.contains("host wall:"), "{clean}");
        let profiled = RunStats {
            wall: Some(WallSummary {
                total_ns: 2_500_000,
                kernel_ns: 2_000_000,
                phases: vec![("gather", 1_500_000), ("apply", 500_000), ("scatter", 0)],
                threads: 4,
                imbalance: 1.25,
            }),
            ..Default::default()
        }
        .to_string();
        assert!(
            profiled.contains("host wall: 2.500 ms total (2.000 ms in kernels)"),
            "{profiled}"
        );
        assert!(profiled.contains("4 threads, imbalance 1.25"));
        assert!(profiled.contains("gather 1.500 ms"));
        assert!(profiled.contains("apply 0.500 ms"));
        assert!(!profiled.contains("scatter"), "zero phases stay silent");
    }

    #[test]
    fn memcpy_share() {
        let s = RunStats {
            elapsed: SimDuration::from_millis(100),
            memcpy_time: SimDuration::from_millis(95),
            ..Default::default()
        };
        assert!((s.memcpy_share() - 0.95).abs() < 1e-9);
    }
}
