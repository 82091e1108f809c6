//! `jacobi-temporal`: a 7-point Jacobi sweep plus copy compiled with
//! `FusionLevel::Temporal(4)` on a grid with four ghost layers, so one
//! execution is a depth-4 super-step of four logical iterations.
//!
//! Inputs: per job, a seeded field in [-1, 1). Each job is short (48
//! logical iterations) and reloads its input, so the contracting sweep
//! never decays into subnormal numbers. Checks: every value finite on
//! every job; once per run, a job's fields bit-identical to a
//! Conservative replay of the same input.

use std::time::Instant;

use neon_core::{ExecReport, FunctionalMode, FusionLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, Stencil, StorageMode,
};
use neon_set::Checkpoint;
use neon_sys::{Backend, CounterSnapshot};

use crate::solver::{add_passes, collectives, ms, unit_hash, Load, Program, Reference, Setup};
use crate::trace::{Layer, Tracer};

const DIM: usize = 96;
const HALO_CAP: usize = 4;
const DEPTH: u8 = 4;

pub struct Jacobi {
    backend: Backend,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    seq: Vec<Container>,
    temporal: Skeleton,
    /// Compiled on first use by the reference check.
    conservative: Option<Skeleton>,
    mode: FunctionalMode,
}

/// `to ← ⅛ Σ₆ from[neighbours]`.
fn stencil_sum(
    g: &DenseGrid,
    from: &Field<f64, DenseGrid>,
    to: &Field<f64, DenseGrid>,
) -> Container {
    let (fc, tc) = (from.clone(), to.clone());
    Container::compute_opts(
        "jacobi",
        g.as_space(),
        move |ldr| {
            let fv = ldr.read_stencil(&fc);
            let tv = ldr.write(&tc);
            Box::new(move |c| {
                let mut s = 0.0;
                for slot in 0..6 {
                    s += fv.ngh(c, slot, 0);
                }
                tv.set(c, 0, 0.125 * s);
            })
        },
        // 6 neighbour adds + 1 scale: the FLOP model and the ghost
        // recompute meter need a nonzero rate.
        7,
        1.0,
    )
}

fn options(fusion: FusionLevel, mode: FunctionalMode) -> SkeletonOptions {
    SkeletonOptions {
        fusion,
        functional_mode: mode,
        ..Default::default()
    }
}

pub fn build(
    tr: &Tracer,
    backend: &Backend,
    mode: FunctionalMode,
    s: &mut Setup,
) -> Box<dyn Program> {
    let t = Instant::now();
    let st = Stencil::seven_point();
    let grid = tr.span(Layer::Domain, "DenseGrid::with_halo_capacity", || {
        DenseGrid::with_halo_capacity(
            backend,
            Dim3::cube(DIM),
            &[&st],
            StorageMode::Real,
            HALO_CAP,
        )
        .expect("Jacobi grid")
    });
    s.grid_ms += ms(t);

    let t = Instant::now();
    let field = |name: &str| {
        tr.span(Layer::Domain, "Field::new", || {
            Field::new(&grid, name, 1, 0.0, MemLayout::SoA).expect("Jacobi field")
        })
    };
    let (x, y) = (field("x"), field("y"));
    s.field_ms += ms(t);

    let t = Instant::now();
    let seq = tr.span(Layer::Set, "Container::compute_opts", || {
        vec![stencil_sum(&grid, &x, &y), ops::copy(&grid, &y, &x)]
    });
    s.container_ms += ms(t);

    let t = Instant::now();
    let temporal = tr.span(Layer::Core, "Skeleton::sequence", || {
        Skeleton::sequence(
            backend,
            "jacobi-temporal",
            seq.clone(),
            options(FusionLevel::Temporal(DEPTH), mode),
        )
    });
    s.compile_ms += ms(t);
    add_passes(s, &[&temporal]);
    Box::new(Jacobi {
        backend: backend.clone(),
        x,
        y,
        seq,
        temporal,
        conservative: None,
        mode,
    })
}

impl Jacobi {
    /// Run one job of `execs` temporal executions on `sk`, timing it.
    fn timed_job(sk: &mut Skeleton, tr: &Tracer, execs: usize) -> (f64, f64) {
        let t = Instant::now();
        let mut vus = 0.0;
        for _ in 0..execs {
            vus += tr
                .span(Layer::Core, "Skeleton::run", || sk.run())
                .makespan
                .as_us();
        }
        (ms(t), vus)
    }
}

impl Program for Jacobi {
    fn cells(&self) -> u64 {
        (DIM * DIM * DIM) as u64
    }

    fn iters_per_exec(&self) -> usize {
        self.temporal.logical_iters_per_execution()
    }

    fn load(&mut self, tr: &Tracer, input: u64) -> Load {
        let t = Instant::now();
        tr.span(Layer::Domain, "Field::fill", || {
            self.x
                .fill(|a, b, c, _| 2.0 * unit_hash(input, a, b, c) - 1.0);
            self.y.fill(|_, _, _, _| 0.0);
        });
        Load {
            fill_ms: ms(t),
            ..Load::default()
        }
    }

    fn exec(&mut self, tr: &Tracer) -> ExecReport {
        tr.span(Layer::Core, "Skeleton::run", || self.temporal.run())
    }

    fn check(&mut self, tr: &Tracer) -> Result<(), String> {
        let mut finite = true;
        tr.span(Layer::Domain, "Field::for_each", || {
            self.x.for_each(|_, _, _, _, v| finite &= v.is_finite())
        });
        if finite {
            Ok(())
        } else {
            Err("non-finite value".into())
        }
    }

    fn reference(&mut self, tr: &Tracer, input: u64, execs: usize) -> Reference {
        let k = self.iters_per_exec();
        if k != usize::from(DEPTH) {
            eprintln!("temporal super-step did not engage (k = {k})");
            return Reference {
                ok: false,
                temporal_gain: None,
            };
        }
        if self.conservative.is_none() {
            let (backend, seq, mode) = (&self.backend, self.seq.clone(), self.mode);
            self.conservative = Some(tr.span(Layer::Core, "Skeleton::sequence", || {
                Skeleton::sequence(
                    backend,
                    "jacobi-conservative",
                    seq,
                    options(FusionLevel::Conservative, mode),
                )
            }));
        }
        self.load(tr, input);
        let (t_wall, t_vus) = Self::timed_job(&mut self.temporal, tr, execs);
        let temporal_bits = self.bits();
        self.load(tr, input);
        let cons = self.conservative.as_mut().expect("compiled above");
        let (c_wall, c_vus) = Self::timed_job(cons, tr, execs * k);
        let ok = self.bits() == temporal_bits;
        if !ok {
            eprintln!("temporal fields differ from the Conservative replay");
        }
        Reference {
            ok,
            temporal_gain: Some((c_vus / t_vus, c_wall / t_wall)),
        }
    }

    fn counters(&self) -> CounterSnapshot {
        self.temporal.counters_snapshot()
    }

    fn set_mode(&mut self, mode: FunctionalMode) {
        self.mode = mode;
        self.temporal.set_functional_mode(mode);
        if let Some(c) = &mut self.conservative {
            c.set_functional_mode(mode);
        }
    }

    fn set_functional(&mut self, on: bool) {
        self.temporal.set_functional(on);
    }

    fn bits(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for f in [&self.x, &self.y] {
            f.for_each(|_, _, _, _, x| v.push(x.to_bits()));
        }
        v
    }

    fn checkpoint(&self, tr: &Tracer) -> Checkpoint {
        tr.span(Layer::Core, "Skeleton::capture_checkpoint", || {
            self.temporal.capture_checkpoint(0)
        })
    }

    fn update_halos(&self, tr: &Tracer) {
        tr.span(Layer::Domain, "Field::update_halos", || {
            self.x.update_halos()
        });
    }

    fn collectives_per_exec(&self) -> usize {
        collectives(&self.temporal)
    }
}
