//! Experiment runners: one function per simulated configuration.

use ildp_core::{
    trace_original, ChainPolicy, ProfileConfig, StraightenStats, StraightenedVm, Translator, Vm,
    VmConfig, VmExit, VmStats,
};
use ildp_isa::IsaForm;
use ildp_uarch::{
    CacheConfig, IldpConfig, IldpModel, PredictorConfig, SuperscalarConfig, SuperscalarModel,
    TimingModel, TimingStats,
};
use spec_workloads::Workload;

/// Result of one (workload × configuration) cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Timing statistics from the processor model.
    pub timing: TimingStats,
    /// DBT statistics (absent for original-program runs).
    pub vm: Option<VmStats>,
    /// Straightened-system statistics, when that system ran.
    pub straighten: Option<StraightenStats>,
}

fn expect_clean(name: &str, exit: &VmExit) {
    match exit {
        VmExit::Halted | VmExit::Budget => {}
        VmExit::Trapped { vaddr, trap, .. } => {
            panic!("{name}: unexpected trap at {vaddr:#x}: {trap}")
        }
        VmExit::Fault { error } => {
            panic!("{name}: runtime fault: {error}")
        }
    }
}

/// Runs the **original** Alpha program on the conventional superscalar
/// (the paper's "original" simulator). `use_ras` toggles the hardware
/// return-address stack (Figure 6's with/without-RAS bars).
pub fn run_original(w: &Workload, use_ras: bool) -> CellResult {
    let config = SuperscalarConfig {
        predictors: PredictorConfig {
            use_ras,
            ..PredictorConfig::default()
        },
        ..SuperscalarConfig::default()
    };
    let mut model = SuperscalarModel::new(config);
    let (exit, _count) = trace_original(&w.program, w.budget * 2, &mut model);
    expect_clean(w.name, &exit);
    CellResult {
        timing: model.finish(),
        vm: None,
        straighten: None,
    }
}

/// Runs the **code-straightening-only** system on the superscalar model
/// with the given chaining policy (Figures 4, 5, 6).
pub fn run_straightened(w: &Workload, chain: ChainPolicy) -> CellResult {
    let predictors = PredictorConfig {
        // Returns exist in the trace only under the dual-RAS policy; the
        // other policies lower returns to compare-and-branch/dispatch.
        dual_ras: chain.uses_dual_ras(),
        use_ras: chain.uses_dual_ras(),
        ..PredictorConfig::default()
    };
    let config = SuperscalarConfig {
        predictors,
        ..SuperscalarConfig::default()
    };
    let mut model = SuperscalarModel::new(config);
    let mut vm = StraightenedVm::new(chain, ProfileConfig::default(), &w.program);
    let exit = vm.run(w.budget * 2, &mut model);
    expect_clean(w.name, &exit);
    CellResult {
        timing: model.finish(),
        vm: None,
        straighten: Some(*vm.stats()),
    }
}

/// ILDP machine parameters for one Figure 8/9 configuration.
#[derive(Clone, Copy, Debug)]
pub struct IldpParams {
    /// Logical accumulators (4 or 8).
    pub acc_count: usize,
    /// Processing elements (4, 6 or 8).
    pub pe_count: usize,
    /// Replicated L1 D-cache: `true` = 32 KB 4-way, `false` = 8 KB 2-way.
    pub big_dcache: bool,
    /// Global communication latency in cycles (0 or 2).
    pub comm_latency: u64,
}

impl Default for IldpParams {
    /// The Figure 8 configuration: 8 PEs, 32 KB L1D, 0-cycle global
    /// communication, four logical accumulators.
    fn default() -> IldpParams {
        IldpParams {
            acc_count: 4,
            pe_count: 8,
            big_dcache: true,
            comm_latency: 0,
        }
    }
}

/// Runs the full co-designed VM (DBT + ILDP timing model).
pub fn run_ildp(w: &Workload, form: IsaForm, params: IldpParams) -> CellResult {
    let uarch = IldpConfig {
        pe_count: params.pe_count,
        comm_latency: params.comm_latency,
        dcache: if params.big_dcache {
            CacheConfig::dcache_32k()
        } else {
            CacheConfig::dcache_8k()
        },
        ..IldpConfig::default()
    };
    let vm_config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: params.acc_count,
            fuse_memory: false,
        },
        ..VmConfig::default()
    };
    let mut model = IldpModel::new(uarch);
    let mut vm = Vm::new(vm_config, &w.program);
    let exit = vm.run(w.budget * 2, &mut model);
    expect_clean(w.name, &exit);
    CellResult {
        timing: model.finish(),
        vm: Some(vm.stats().clone()),
        straighten: None,
    }
}

/// Runs the DBT functionally only (no timing model), for Table 2 and
/// Figure 7 statistics.
pub fn run_dbt_functional(w: &Workload, form: IsaForm) -> VmStats {
    let vm_config = VmConfig {
        translator: Translator {
            form,
            chain: ChainPolicy::SwPredDualRas,
            acc_count: 4,
            fuse_memory: false,
        },
        ..VmConfig::default()
    };
    let mut vm = Vm::new(vm_config, &w.program);
    let exit = vm.run(w.budget * 2, &mut ildp_core::NullSink);
    expect_clean(w.name, &exit);
    vm.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_workloads::by_name;

    #[test]
    fn original_run_produces_timing() {
        let w = by_name("gzip", 1).unwrap();
        let r = run_original(&w, true);
        assert!(r.timing.instructions > 10_000);
        assert!(r.timing.ipc() > 0.2 && r.timing.ipc() <= 4.0);
    }

    #[test]
    fn straightened_run_produces_timing_and_stats() {
        let w = by_name("eon", 1).unwrap();
        let r = run_straightened(&w, ChainPolicy::SwPredDualRas);
        let s = r.straighten.unwrap();
        assert!(s.fragments > 0);
        assert!(r.timing.v_instructions > 1_000);
    }

    #[test]
    fn ildp_run_produces_v_ipc() {
        let w = by_name("gzip", 1).unwrap();
        let r = run_ildp(&w, IsaForm::Modified, IldpParams::default());
        assert!(r.timing.v_ipc() > 0.2, "v-ipc {}", r.timing.v_ipc());
        assert!(
            r.timing.ipc() >= r.timing.v_ipc(),
            "native I-IPC must be at least V-IPC"
        );
        assert!(r.vm.unwrap().fragments > 0);
    }

    #[test]
    fn functional_dbt_stats_have_expansion() {
        let w = by_name("crafty", 1).unwrap();
        let basic = run_dbt_functional(&w, IsaForm::Basic);
        let modified = run_dbt_functional(&w, IsaForm::Modified);
        assert!(basic.dynamic_expansion() > modified.dynamic_expansion());
    }
}
