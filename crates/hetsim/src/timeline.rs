//! Event-driven virtual-time execution of task graphs on the simulated
//! platform.
//!
//! Models CUDA-stream semantics: every *resource* (a device's compute queue,
//! or one of its copy engines) executes its tasks in submission order; a
//! task additionally waits for its cross-resource dependencies. Accelerators
//! with a single copy engine serialize host→device and device→host transfers
//! on the same queue; dual-engine devices run them concurrently — exactly
//! the §III-A distinction FEVES exploits when it overlaps `SF(RF)→SME` with
//! `CF→SME` transfers.

use crate::device::{CopyEngines, DeviceId, DeviceKind};
use crate::noise::DurationModel;
use crate::platform::Platform;
use feves_codec::types::Module;
use serde::{Deserialize, Serialize};

/// Handle to a task in a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskId(pub usize);

/// Transfer direction across an accelerator link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dir {
    /// Host → device.
    H2d,
    /// Device → host.
    D2h,
}

/// Which logical buffer a transfer moves (the paper's CF/RF/SF/MV streams);
/// used by performance characterization to attribute measured bandwidths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferTag {
    /// Current-frame stripe.
    Cf,
    /// Reconstructed reference-frame stripe.
    Rf,
    /// Sub-pixel-frame stripe.
    Sf,
    /// Motion vectors.
    Mv,
}

/// What a task does.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskKind {
    /// Kernel execution of `units` work units of `module` on `device`.
    Compute {
        /// Executing device.
        device: DeviceId,
        /// Inter-loop module the kernel belongs to.
        module: Module,
        /// Work units (see [`feves_codec::workload`]).
        units: f64,
    },
    /// DMA transfer of `bytes` in `dir` on `device`'s link.
    Transfer {
        /// Owning accelerator.
        device: DeviceId,
        /// Direction.
        dir: Dir,
        /// Payload size.
        bytes: usize,
        /// Logical buffer.
        tag: TransferTag,
    },
    /// Zero-duration marker used for synchronization points (τ1, τ2, …).
    Barrier,
}

/// A node of the task graph.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Action.
    pub kind: TaskKind,
    /// Tasks that must finish before this one starts.
    pub deps: Vec<TaskId>,
    /// Diagnostic label (e.g. `"ME dev1 rows 10..24"`).
    pub label: String,
}

/// A DAG of compute/transfer tasks, built per encoded frame by the Video
/// Coding Manager.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a compute task.
    pub fn compute(
        &mut self,
        device: DeviceId,
        module: Module,
        units: f64,
        deps: Vec<TaskId>,
        label: impl Into<String>,
    ) -> TaskId {
        self.push(
            TaskKind::Compute {
                device,
                module,
                units,
            },
            deps,
            label,
        )
    }

    /// Add a transfer task.
    pub fn transfer(
        &mut self,
        device: DeviceId,
        dir: Dir,
        bytes: usize,
        tag: TransferTag,
        deps: Vec<TaskId>,
        label: impl Into<String>,
    ) -> TaskId {
        self.push(
            TaskKind::Transfer {
                device,
                dir,
                bytes,
                tag,
            },
            deps,
            label,
        )
    }

    /// Add a zero-cost synchronization barrier over `deps`.
    pub fn barrier(&mut self, deps: Vec<TaskId>, label: impl Into<String>) -> TaskId {
        self.push(TaskKind::Barrier, deps, label)
    }

    fn push(&mut self, kind: TaskKind, deps: Vec<TaskId>, label: impl Into<String>) -> TaskId {
        for d in &deps {
            assert!(d.0 < self.tasks.len(), "dependency on future task");
        }
        self.tasks.push(TaskSpec {
            kind,
            deps,
            label: label.into(),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Task accessor.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.0]
    }

    /// Iterate over all tasks in submission order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }
}

/// Result of simulating a [`TaskGraph`]: per-task start/finish times on the
/// virtual clock, in seconds.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Start time of each task.
    pub start: Vec<f64>,
    /// Finish time of each task.
    pub finish: Vec<f64>,
    /// Maximum finish time (the frame's τtot when simulating one frame).
    pub makespan: f64,
}

impl Schedule {
    /// Duration of task `id`.
    pub fn duration(&self, id: TaskId) -> f64 {
        self.finish[id.0] - self.start[id.0]
    }

    /// Finish time of task `id`.
    pub fn finish_of(&self, id: TaskId) -> f64 {
        self.finish[id.0]
    }
}

/// Errors from [`simulate`].
#[derive(Debug, PartialEq, Eq)]
pub enum SimError {
    /// The graph references a device the platform does not have, or a
    /// transfer targets a CPU core.
    BadDevice(String),
    /// Queue ordering + dependencies deadlock (cyclic wait).
    Deadlock(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadDevice(m) => write!(f, "bad device: {m}"),
            SimError::Deadlock(m) => write!(f, "deadlock: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The queues tasks run on. Each device's compute queue has its device
/// index as its id; after them come each accelerator's copy engines and a
/// second kernel stream. GPUs since Fermi execute independent kernels
/// concurrently; FEVES routes INT there so ME ∥ INT — the "parallelism
/// across independent modules" of §III-B that the Algorithm 2 constraints
/// assume. CPU cores keep a single queue (the paper's constraint (2) sums
/// ME and INT time on a core).
struct Resources {
    /// `[h2d, d2h]` copy-engine queue per accelerator (one queue twice on
    /// a single engine, the shared bus's pair on a shared host link).
    copy_engines: Vec<[usize; 2]>,
    /// INT's kernel stream per accelerator; `None` on a core.
    int_stream: Vec<Option<usize>>,
    len: usize,
}

impl Resources {
    fn of(platform: &Platform) -> Self {
        let nd = platform.devices.len();
        let mut copy_engines = vec![[usize::MAX; 2]; nd];
        let mut int_stream = vec![None; nd];
        let mut next = nd;
        let mut take = |k: usize| {
            next += k;
            next - k
        };
        // One full-duplex bus shared by every accelerator.
        let shared_bus = platform.shared_host_link.then(|| {
            let bus = take(2);
            [bus, bus + 1]
        });
        for (d, dev) in platform.devices.iter().enumerate() {
            let DeviceKind::Accelerator(engines) = dev.kind else {
                continue;
            };
            copy_engines[d] = match (shared_bus, engines) {
                (Some(bus), _) => bus,
                (None, CopyEngines::Single) => [take(1); 2],
                (None, CopyEngines::Dual) => {
                    let up = take(2);
                    [up, up + 1]
                }
            };
            int_stream[d] = Some(take(1));
        }
        Resources {
            copy_engines,
            int_stream,
            len: next,
        }
    }

    /// Each queue's tasks in submission order, and each task's duration:
    /// the device model's at `speed_mult`, then `durations`' draw in
    /// submission order, so results are deterministic for a given seed.
    fn place(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        speed_mult: &[f64],
        durations: &mut dyn DurationModel,
    ) -> Result<(Vec<Vec<usize>>, Vec<f64>), SimError> {
        let mut queues = vec![Vec::new(); self.len];
        let mut base = vec![0.0f64; graph.len()];
        for (id, t) in graph.iter() {
            let d = match &t.kind {
                TaskKind::Compute { device, .. } | TaskKind::Transfer { device, .. } => device.0,
                TaskKind::Barrier => continue,
            };
            let Some(dev) = platform.devices.get(d) else {
                let label = &t.label;
                return Err(SimError::BadDevice(format!("device {d} of task {label}")));
            };
            let (queue, duration) = match &t.kind {
                TaskKind::Compute { module, units, .. } => {
                    let queue = match (module, self.int_stream[d]) {
                        (Module::Interp, Some(stream)) => stream,
                        _ => d,
                    };
                    (queue, dev.compute_time(*module, *units, speed_mult[d]))
                }
                TaskKind::Transfer { dir, bytes, .. } => {
                    let Some(link) = dev.link else {
                        let label = &t.label;
                        let e = format!("transfer {label} on link-less device {d}");
                        return Err(SimError::BadDevice(e));
                    };
                    let [h2d, d2h] = self.copy_engines[d];
                    let engine = if *dir == Dir::H2d { h2d } else { d2h };
                    (engine, link.transfer_time(*bytes, *dir == Dir::H2d))
                }
                TaskKind::Barrier => continue,
            };
            queues[queue].push(id.0);
            base[id.0] = duration;
        }
        for (id, t) in graph.iter() {
            if !matches!(t.kind, TaskKind::Barrier) {
                base[id.0] = durations.duration(t, base[id.0]);
            }
        }
        Ok((queues, base))
    }
}

/// Simulate `graph` on `platform`.
///
/// `speed_mult[d]` scales device `d`'s compute speed for this simulation
/// (1.0 nominal; 0.5 = half speed — the Fig 7 perturbation hook).
/// `durations` injects measurement noise (see [`crate::noise`]).
pub fn simulate(
    graph: &TaskGraph,
    platform: &Platform,
    speed_mult: &[f64],
    durations: &mut dyn DurationModel,
) -> Result<Schedule, SimError> {
    let nd = platform.devices.len();
    if speed_mult.len() != nd {
        return Err(SimError::BadDevice(format!(
            "speed_mult has {} entries for {} devices",
            speed_mult.len(),
            nd
        )));
    }
    let resources = Resources::of(platform);
    let (queues, base) = resources.place(graph, platform, speed_mult, durations)?;
    run_events(graph, &queues, &base)
}

/// Discrete simulation: repeatedly start the queue head whose deps are all
/// finished; barriers resolve as soon as their deps do.
fn run_events(
    graph: &TaskGraph,
    queues: &[Vec<usize>],
    base: &[f64],
) -> Result<Schedule, SimError> {
    let n = graph.len();
    let n_res = queues.len();
    let mut start = vec![f64::NAN; n];
    let mut finish = vec![f64::NAN; n];
    let mut head = vec![0usize; n_res];
    let mut res_free = vec![0.0f64; n_res];
    let mut done = vec![false; n];
    let mut n_done = 0usize;

    let deps_ready = |task: usize, done: &[bool]| graph.tasks[task].deps.iter().all(|d| done[d.0]);
    let deps_finish = |task: usize, finish: &[f64]| {
        graph.tasks[task]
            .deps
            .iter()
            .fold(0.0f64, |acc, d| acc.max(finish[d.0]))
    };

    while n_done < n {
        let mut progressed = false;

        // Resolve all ready barriers first (zero duration).
        for (i, t) in graph.tasks.iter().enumerate() {
            if !done[i] && matches!(t.kind, TaskKind::Barrier) && deps_ready(i, &done) {
                let at = deps_finish(i, &finish);
                start[i] = at;
                finish[i] = at;
                done[i] = true;
                n_done += 1;
                progressed = true;
            }
        }

        // Among resource heads whose deps are done, pick the one that can
        // start earliest (deterministic tie-break: lowest resource id).
        let mut pick: Option<(usize, usize, f64)> = None; // (res, task, start)
        for r in 0..n_res {
            if head[r] >= queues[r].len() {
                continue;
            }
            let task = queues[r][head[r]];
            if !deps_ready(task, &done) {
                continue;
            }
            let s = res_free[r].max(deps_finish(task, &finish));
            match pick {
                None => pick = Some((r, task, s)),
                Some((_, _, ps)) if s < ps - 1e-15 => pick = Some((r, task, s)),
                _ => {}
            }
        }
        if let Some((r, task, s)) = pick {
            start[task] = s;
            finish[task] = s + base[task];
            res_free[r] = finish[task];
            head[r] += 1;
            done[task] = true;
            n_done += 1;
            progressed = true;
        }

        if !progressed && n_done < n {
            let stuck: Vec<&str> = graph
                .tasks
                .iter()
                .enumerate()
                .filter(|(i, _)| !done[*i])
                .map(|(_, t)| t.label.as_str())
                .take(5)
                .collect();
            return Err(SimError::Deadlock(format!(
                "{} tasks stuck, e.g. {:?}",
                n - n_done,
                stuck
            )));
        }
    }

    let makespan = finish.iter().fold(0.0f64, |a, &b| a.max(b));
    Ok(Schedule {
        start,
        finish,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::Deterministic;
    use crate::platform::Platform;
    use crate::profiles::{cpu_nehalem, gpu_fermi, gpu_kepler};

    fn platform_nf() -> Platform {
        Platform::build(vec![gpu_fermi()], &cpu_nehalem(), 1)
    }

    #[test]
    fn sequential_chain_sums_durations() {
        let p = platform_nf();
        let mut g = TaskGraph::new();
        let gpu = DeviceId(0);
        let a = g.compute(gpu, Module::Me, 1024.0 * 120.0, vec![], "me row");
        let b = g.compute(gpu, Module::Sme, 120.0, vec![a], "sme row");
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        assert!(sched.start[1] >= sched.finish[0] - 1e-15);
        assert!((sched.makespan - (sched.duration(a) + sched.duration(b))).abs() < 1e-12);
    }

    #[test]
    fn independent_devices_overlap() {
        let p = Platform::build(vec![gpu_fermi(), gpu_kepler()], &cpu_nehalem(), 1);
        let mut g = TaskGraph::new();
        let t0 = g.compute(DeviceId(0), Module::Me, 1.0e6, vec![], "me f");
        let t1 = g.compute(DeviceId(1), Module::Me, 1.0e6, vec![], "me k");
        let sched = simulate(&g, &p, &[1.0; 3], &mut Deterministic).unwrap();
        // Both start at 0: true parallelism.
        assert_eq!(sched.start[t0.0], 0.0);
        assert_eq!(sched.start[t1.0], 0.0);
        assert!(sched.makespan < sched.duration(t0) + sched.duration(t1));
    }

    #[test]
    fn single_copy_engine_serializes_directions() {
        let p = platform_nf(); // Fermi: single engine
        let mut g = TaskGraph::new();
        let gpu = DeviceId(0);
        let up = g.transfer(gpu, Dir::H2d, 10_000_000, TransferTag::Cf, vec![], "cf up");
        let down = g.transfer(
            gpu,
            Dir::D2h,
            10_000_000,
            TransferTag::Sf,
            vec![],
            "sf down",
        );
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        assert!(
            sched.start[down.0] >= sched.finish[up.0] - 1e-15,
            "single engine must serialize H2D and D2H"
        );
    }

    #[test]
    fn dual_copy_engine_overlaps_directions() {
        let p = Platform::build(vec![gpu_kepler()], &cpu_nehalem(), 1);
        let mut g = TaskGraph::new();
        let gpu = DeviceId(0);
        let up = g.transfer(gpu, Dir::H2d, 10_000_000, TransferTag::Cf, vec![], "cf up");
        let down = g.transfer(
            gpu,
            Dir::D2h,
            10_000_000,
            TransferTag::Sf,
            vec![],
            "sf down",
        );
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        assert_eq!(sched.start[up.0], 0.0);
        assert_eq!(sched.start[down.0], 0.0, "dual engines overlap directions");
    }

    #[test]
    fn compute_overlaps_transfer_on_accelerator() {
        let p = platform_nf();
        let mut g = TaskGraph::new();
        let gpu = DeviceId(0);
        let k = g.compute(gpu, Module::Me, 2.0e6, vec![], "kernel");
        let t = g.transfer(
            gpu,
            Dir::H2d,
            20_000_000,
            TransferTag::Sf,
            vec![],
            "prefetch",
        );
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        assert_eq!(sched.start[k.0], 0.0);
        assert_eq!(sched.start[t.0], 0.0, "kernel and DMA run concurrently");
    }

    #[test]
    fn speed_multiplier_slows_device() {
        let p = platform_nf();
        let mut g = TaskGraph::new();
        let t = g.compute(DeviceId(0), Module::Me, 1.0e6, vec![], "me");
        let fast = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        let slow = simulate(&g, &p, &[0.5, 1.0], &mut Deterministic).unwrap();
        assert!((slow.duration(t) - 2.0 * fast.duration(t)).abs() < 1e-12);
    }

    #[test]
    fn barrier_resolves_at_max_dep_finish() {
        let p = platform_nf();
        let mut g = TaskGraph::new();
        let a = g.compute(DeviceId(0), Module::Me, 1.0e6, vec![], "a");
        let b = g.compute(DeviceId(1), Module::Me, 5.0e5, vec![], "b");
        let tau = g.barrier(vec![a, b], "tau1");
        let c = g.compute(DeviceId(1), Module::Sme, 100.0, vec![tau], "c");
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        let expect = sched.finish[a.0].max(sched.finish[b.0]);
        assert_eq!(sched.finish[tau.0], expect);
        assert!(sched.start[c.0] >= expect);
    }

    #[test]
    fn transfer_on_cpu_core_is_error() {
        let p = platform_nf();
        let mut g = TaskGraph::new();
        g.transfer(DeviceId(1), Dir::H2d, 100, TransferTag::Cf, vec![], "bogus");
        assert!(matches!(
            simulate(&g, &p, &[1.0, 1.0], &mut Deterministic),
            Err(SimError::BadDevice(_))
        ));
    }

    /// A seeded random DAG over `p`: ME and INT computes on any device,
    /// transfers of every tag in both directions on accelerators, barriers,
    /// each task depending on up to three earlier ones.
    fn random_graph(p: &Platform, seed: u64, n_tasks: usize) -> TaskGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let accels: Vec<DeviceId> = p.accelerators().collect();
        let tags = [
            TransferTag::Cf,
            TransferTag::Rf,
            TransferTag::Sf,
            TransferTag::Mv,
        ];
        let mut g = TaskGraph::new();
        for i in 0..n_tasks {
            let deps: Vec<TaskId> = (0..rng.gen_range(0..4usize))
                .filter(|_| i > 0)
                .map(|_| TaskId(rng.gen_range(0..i)))
                .collect();
            let pick = rng.gen_range(0..10u32);
            if pick < 5 || accels.is_empty() && pick < 9 {
                let device = DeviceId(rng.gen_range(0..p.len()));
                let module = if rng.gen_bool(0.5) {
                    Module::Me
                } else {
                    Module::Interp
                };
                let units = rng.gen_range(1.0e3..4.0e6);
                g.compute(device, module, units, deps, "c");
            } else if pick < 9 {
                let device = accels[rng.gen_range(0..accels.len())];
                let dir = if rng.gen_bool(0.5) {
                    Dir::H2d
                } else {
                    Dir::D2h
                };
                let tag = tags[rng.gen_range(0..tags.len())];
                let bytes = rng.gen_range(1_000..20_000_000usize);
                g.transfer(device, dir, bytes, tag, deps, "t");
            } else {
                g.barrier(deps, "b");
            }
        }
        g
    }

    /// Every start, finish and makespan hangs on the resource table, the
    /// base durations and the event loop's pick order. Each link shape pins
    /// a CRC-32 over random DAGs simulated at nominal and perturbed speeds,
    /// with and without a noisy duration model. A changed constant is a
    /// changed schedule.
    #[test]
    fn schedule_digests_are_pinned() {
        use crate::noise::MultiplicativeNoise;
        use crate::profiles::cpu_haswell;
        let two_cores = |gpu| Platform::build(vec![gpu], &cpu_nehalem(), 2);
        let three = vec![gpu_fermi(), gpu_kepler(), gpu_fermi()];
        let pinned: [(&str, Platform, u32); 10] = [
            ("SysHK", Platform::sys_hk(), 0x764d_bb4b),
            ("SysNF", Platform::sys_nf(), 0x4fa8_7642),
            ("SysNFF", Platform::sys_nff(), 0x0d4a_a80c),
            (
                "SysNFF, shared link",
                Platform::sys_nff().with_shared_host_link(),
                0x441e_9136,
            ),
            (
                "3 accelerators + 2 cores",
                Platform::build(three, &cpu_nehalem(), 2),
                0xd636_13c6,
            ),
            ("Single engine", two_cores(gpu_fermi()), 0x573e_4c13),
            (
                "Single engine, shared link",
                two_cores(gpu_fermi()).with_shared_host_link(),
                0xc451_a8fd,
            ),
            ("Dual engine", two_cores(gpu_kepler()), 0x92d6_3e7e),
            (
                "Dual engine, shared link",
                two_cores(gpu_kepler()).with_shared_host_link(),
                0x92d6_3e7e,
            ),
            (
                "CPU only",
                Platform::cpu_only(cpu_haswell(), 4),
                0x0bb9_7382,
            ),
        ];
        let mut cases = 0;
        for (name, p, digest) in pinned {
            let mut seen = Vec::new();
            let slowed: Vec<f64> = (0..p.len()).map(|d| 0.5 + 0.25 * (d % 4) as f64).collect();
            for seed in 0..8u64 {
                let g = random_graph(&p, seed, 24 + 8 * seed as usize);
                for speeds in [p.nominal_speeds(), slowed.clone()] {
                    let noisy: [&mut dyn DurationModel; 2] = [
                        &mut Deterministic,
                        &mut MultiplicativeNoise::new(0.05, seed),
                    ];
                    for durations in noisy {
                        let s = simulate(&g, &p, &speeds, durations).unwrap();
                        let times = s.start.iter().chain(&s.finish).chain([&s.makespan]);
                        for t in times {
                            seen.extend_from_slice(&t.to_bits().to_le_bytes());
                        }
                        cases += 1;
                    }
                }
            }
            let crc = feves_ft::ckpt::crc32(&seen);
            assert_eq!(crc, digest, "{name}: digest {crc:#010x}");
        }
        assert_eq!(cases, 320);
    }

    #[test]
    fn fifo_order_respected_within_resource() {
        // Second-submitted kernel cannot start before the first, even if its
        // deps clear earlier.
        let p = platform_nf();
        let mut g = TaskGraph::new();
        let gpu = DeviceId(0);
        let slow_dep = g.compute(DeviceId(1), Module::Me, 2.0e6, vec![], "cpu dep");
        let k1 = g.compute(gpu, Module::Me, 1.0e6, vec![slow_dep], "k1 (waits)");
        let k2 = g.compute(gpu, Module::Sme, 10.0, vec![], "k2 (queued after)");
        let sched = simulate(&g, &p, &[1.0, 1.0], &mut Deterministic).unwrap();
        assert!(
            sched.start[k2.0] >= sched.finish[k1.0] - 1e-15,
            "stream order: k2 queued behind k1"
        );
    }
}

#[cfg(test)]
mod shared_bus_tests {
    use super::*;
    use crate::noise::Deterministic;
    use crate::platform::Platform;
    use crate::profiles::{cpu_nehalem, gpu_kepler};

    #[test]
    fn shared_bus_serializes_cross_device_transfers() {
        let dedicated = Platform::build(vec![gpu_kepler(), gpu_kepler()], &cpu_nehalem(), 1);
        let shared = dedicated.clone().with_shared_host_link();
        let mut g = TaskGraph::new();
        let a = g.transfer(
            DeviceId(0),
            Dir::H2d,
            20_000_000,
            TransferTag::Sf,
            vec![],
            "a",
        );
        let b = g.transfer(
            DeviceId(1),
            Dir::H2d,
            20_000_000,
            TransferTag::Sf,
            vec![],
            "b",
        );
        let sd = simulate(
            &g,
            &dedicated,
            &dedicated.nominal_speeds(),
            &mut Deterministic,
        )
        .unwrap();
        let ss = simulate(&g, &shared, &shared.nominal_speeds(), &mut Deterministic).unwrap();
        // Dedicated links overlap fully; the shared bus serializes.
        assert_eq!(sd.start[a.0], 0.0);
        assert_eq!(sd.start[b.0], 0.0);
        assert!(
            ss.start[b.0] >= ss.finish[a.0] - 1e-12,
            "bus must serialize"
        );
        assert!(ss.makespan > sd.makespan * 1.8);
    }

    #[test]
    fn shared_bus_is_full_duplex() {
        let shared = Platform::build(vec![gpu_kepler(), gpu_kepler()], &cpu_nehalem(), 1)
            .with_shared_host_link();
        let mut g = TaskGraph::new();
        let up = g.transfer(
            DeviceId(0),
            Dir::H2d,
            20_000_000,
            TransferTag::Sf,
            vec![],
            "up",
        );
        let down = g.transfer(
            DeviceId(1),
            Dir::D2h,
            20_000_000,
            TransferTag::Sf,
            vec![],
            "dn",
        );
        let s = simulate(&g, &shared, &shared.nominal_speeds(), &mut Deterministic).unwrap();
        assert_eq!(s.start[up.0], 0.0);
        assert_eq!(s.start[down.0], 0.0, "opposite directions overlap");
    }
}
