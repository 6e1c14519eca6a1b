//! The VM's counter table.
//!
//! Every scalar counter of [`VmStats`] and [`EngineStats`] is declared
//! once, in the `counters!` invocation below, with its doc string and
//! its class. The table generates the structs and the in-order counter
//! walk that everything else derives from: the snapshot wire
//! (`snapshot::put_stats`/`take_stats` write every scalar in table
//! order, `VmStats`'s then the engine's) and the wall-clock mask
//! ([`VmStats::clear_wall_clock`]). The Figure 7 [`CategoryCounts`]
//! tables are explicit fields that the table carries but does not walk.

use crate::classify::CategoryCounts;

/// What a counter measures, which decides whether two runs of the same
/// envelope must agree on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CounterClass {
    /// A pure function of the program and its stimuli: identical across
    /// replays.
    Deterministic,
    /// Host wall-clock time: differs run to run.
    WallClock,
}

/// Declares counter structs. Each `struct` lists its scalar counters as
/// `name: class` (`deterministic` or `wall_clock`), then, after `;`, its
/// nested counter structs (walked after its own scalars), then, after a
/// second `;`, its non-scalar fields (not walked).
macro_rules! counters {
    (@class deterministic) => { CounterClass::Deterministic };
    (@class wall_clock) => { CounterClass::WallClock };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[doc = $doc:literal])* $field:ident: $class:ident, )*
            ;
            $( $(#[doc = $ndoc:literal])* $nested:ident: $nty:ty, )*
            ;
            $( $(#[doc = $xdoc:literal])* $extra:ident: $xty:ty, )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[doc = $doc])* pub $field: u64, )*
            $( $(#[doc = $ndoc])* pub $nested: $nty, )*
            $( $(#[doc = $xdoc])* pub $extra: $xty, )*
        }

        impl $name {
            /// Every scalar counter as `(name, class, value)`, in table
            /// order (own scalars, then each nested struct's).
            pub(crate) fn counters(
                &self,
            ) -> impl Iterator<Item = (&'static str, CounterClass, u64)> + '_ {
                [$( (stringify!($field), counters!(@class $class), self.$field), )*]
                    .into_iter()
                    $( .chain(self.$nested.counters()) )*
            }

            /// [`counters`](Self::counters), by mutable reference.
            pub(crate) fn counters_mut(
                &mut self,
            ) -> impl Iterator<Item = (&'static str, CounterClass, &mut u64)> + '_ {
                let Self { $( $field, )* $( $nested, )* .. } = self;
                [$( (stringify!($field), counters!(@class $class), $field), )*]
                    .into_iter()
                    $( .chain($nested.counters_mut()) )*
            }

            /// Zeroes every wall-clock counter, leaving the deterministic
            /// ones: two runs of the same envelope then compare (and
            /// serialize) identically.
            pub fn clear_wall_clock(&mut self) {
                for (_, class, v) in self.counters_mut() {
                    if class == CounterClass::WallClock {
                        *v = 0;
                    }
                }
            }
        }
    )*};
}

counters! {
    /// Execution statistics accumulated by the engine (the dynamic side of
    /// Table 2 and Figure 7).
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub struct EngineStats {
        /// Total I-ISA instructions executed (including dispatch expansion).
        executed: deterministic,
        /// Chaining-overhead instructions executed (including dispatch).
        chain_executed: deterministic,
        /// Copy instructions executed.
        copies_executed: deterministic,
        /// V-ISA instructions retired by translated code.
        v_insts: deterministic,
        /// Shared-dispatch executions.
        dispatches: deterministic,
        /// Architectural dual-RAS predictions that matched.
        ras_hits: deterministic,
        /// Architectural dual-RAS mismatches (fell through to dispatch).
        ras_misses: deterministic,
        /// Fragment entries.
        fragment_entries: deterministic,
        /// Entries into re-formed region fragments (a subset of
        /// `fragment_entries`).
        region_entries: deterministic,
        ;
        ;
        /// Dynamic usage-category counts (Figure 7), array-backed and shared
        /// with the static side via [`CategoryCounts`].
        categories: CategoryCounts,
    }

    /// Aggregate statistics of a VM run (feeding Table 2, Figure 7 and the
    /// §4.2 overhead numbers).
    #[derive(Clone, PartialEq, Debug, Default)]
    pub struct VmStats {
        /// Instructions interpreted (cold code).
        interpreted: deterministic,
        /// Fragments translated.
        fragments: deterministic,
        /// Source V-ISA instructions translated (static).
        translated_src_insts: deterministic,
        /// I-ISA instructions emitted (static).
        emitted_insts: deterministic,
        /// Static copy instructions emitted.
        static_copies: deterministic,
        /// Strands formed.
        strands: deterministic,
        /// Premature strand terminations.
        terminations: deterministic,
        /// Static translated code bytes installed in the cache.
        translated_code_bytes: deterministic,
        /// Modelled DBT overhead in Alpha instructions (§4.2).
        translation_overhead: deterministic,
        /// Modelled interpretation overhead in Alpha instructions.
        interpretation_overhead: deterministic,
        /// Translation-cache flushes performed (phase-change policy).
        cache_flushes: deterministic,
        /// Fragments checked by the install validator.
        fragments_verified: deterministic,
        /// Wall time spent in the install validator, in nanoseconds.
        verify_nanos: wall_clock,
        /// Translations refused under
        /// [`OnViolation::Reject`](crate::OnViolation::Reject).
        verify_rejected: deterministic,
        /// Fragments clock-evicted under the cache budget.
        evictions: deterministic,
        /// Fragments invalidated by guest stores into their source pages.
        smc_invalidations: deterministic,
        /// Degradation-ladder transitions (each region counts once per level
        /// it descends).
        demotions: deterministic,
        /// Regions that reached the bottom of the ladder (interpret-only).
        blacklisted: deterministic,
        /// Engine dispatches preempted by the watchdog fuel budget.
        fuel_preemptions: deterministic,
        /// Direct-link sites un-patched back to slow-path exits by precise
        /// invalidation.
        unlinked_sites: deterministic,
        /// Instructions interpreted before the first fragment install — the
        /// unavoidable cold-start share of `interpreted`, excluded from
        /// [`VmStats::interp_fallback_ratio`] so the ratio reflects
        /// steady-state fallback only.
        warmup_interpreted: deterministic,
        /// Wall nanoseconds the guest was stalled on translation +
        /// verification. Translation runs synchronously on the VM thread,
        /// so this always equals [`VmStats::translate_wall_nanos`]; it
        /// stays only because the benchmark reads it, and goes when the
        /// benchmark stops doing so.
        translate_stall_nanos: wall_clock,
        /// Wall nanoseconds of translation + verification work done for this
        /// VM (superblocks and re-formed regions).
        translate_wall_nanos: wall_clock,
        /// Warm-start installs: fragments taken pre-translated (and
        /// pre-verified) from the shared [`FragmentStore`](crate::FragmentStore).
        warm_hits: deterministic,
        /// Shared-store lookups that missed and fell back to translation.
        warm_misses: deterministic,
        /// Fragments this VM published to the shared store.
        warm_stores: deterministic,
        /// Store entries this VM saw rejected: artifacts quarantined at
        /// lookup (broken seal, version skew, key mismatch) plus disk-loaded
        /// artifacts refused by
        /// [`VmConfig::store_validator`](crate::VmConfig::store_validator).
        /// Each one degraded gracefully to the normal translate/verify path.
        store_quarantined: deterministic,
        /// Entries the attached store rejected while being opened from disk
        /// (unreadable framing — see
        /// [`StoreStats::load_rejects`](crate::StoreStats::load_rejects)),
        /// snapshotted at [`Vm::attach_store`](crate::Vm::attach_store) time.
        store_load_rejects: deterministic,
        /// Hot fragment chains re-formed into merged regions
        /// ([`EngineConfig::region_trigger`](crate::EngineConfig::region_trigger)).
        regions_formed: deterministic,
        /// Cross-fragment seams erased by region re-formation: one per
        /// constituent boundary folded into a merged region, each of which
        /// previously cost a fragment transfer (entry bookkeeping plus any
        /// redundant copy-out/copy-in pair) every iteration.
        seam_pairs_eliminated: deterministic,
        /// Verifier passes spent on re-formed regions (a subset of
        /// `fragments_verified`). Regions are profile-dependent and never
        /// published to the shared store, so a warm-started VM still runs
        /// these locally; accounting them separately lets warm-start audits
        /// check that nothing *store-eligible* was re-verified.
        regions_verified: deterministic,
        ;
        /// Dynamic engine statistics.
        engine: EngineStats,
        ;
        /// Static usage-category counts across all translations.
        static_categories: CategoryCounts,
        /// Static oracle-boundary category counts (paper's [28] comparison).
        oracle_categories: CategoryCounts,
    }
}

/// A [`VmStats`] with every counter set to the checksum of its own name
/// (distinct, non-zero, and tied to the counter rather than to its wire
/// position) and distinct category tables.
#[cfg(test)]
pub(crate) fn distinct_stats() -> VmStats {
    let cats = |base: u64| CategoryCounts(std::array::from_fn(|i| base + i as u64));
    let mut s = VmStats {
        engine: EngineStats {
            categories: cats(100),
            ..EngineStats::default()
        },
        static_categories: cats(200),
        oracle_categories: cats(300),
        ..VmStats::default()
    };
    for (name, _, v) in s.counters_mut() {
        *v = alpha_isa::hash::checksum(name.as_bytes());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_mask_zeroes_exactly_the_wall_clock_counters() {
        let mut s = distinct_stats();
        s.clear_wall_clock();
        let mut expect = distinct_stats();
        expect.verify_nanos = 0;
        expect.translate_stall_nanos = 0;
        expect.translate_wall_nanos = 0;
        assert_eq!(s, expect);
        let wall: Vec<&str> = s
            .counters()
            .filter(|&(_, class, _)| class == CounterClass::WallClock)
            .map(|(name, ..)| name)
            .collect();
        assert_eq!(
            wall,
            [
                "verify_nanos",
                "translate_stall_nanos",
                "translate_wall_nanos"
            ]
        );
    }
}
