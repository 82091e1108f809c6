//! `lbm-cavity`: D3Q19 twoPop lid-driven cavity, populations in the layout
//! `recommend_layout` picks for a 19-component stencil-read field.
//!
//! Inputs: per job, rest-equilibrium populations with a seeded ±0.1 %
//! density perturbation per cell. Check: every population finite and the
//! total mass conserved to `MASS_TOL` relative (bounce-back walls and
//! the moving lid conserve mass exactly up to round-off).

use std::time::Instant;

use neon_apps::lbm::d3q19::{stream_collide, D3Q19_WEIGHTS};
use neon_apps::lbm::LbmParams;
use neon_core::{
    recommend_layout, AccessSummary, ExecReport, FunctionalMode, LayoutPolicy, Skeleton,
    SkeletonOptions,
};
use neon_domain::{DenseGrid, Dim3, Field, GridLike, Stencil, StorageMode};
use neon_set::Checkpoint;
use neon_sys::{Backend, CounterSnapshot};

use crate::solver::{add_passes, collectives, ms, unit_hash, Load, Program, Setup};
use crate::trace::{Layer, Tracer};

const DIM: usize = 48;
/// Relative mass drift allowed over one job.
const MASS_TOL: f64 = 1e-11;

pub struct Lbm {
    f: [Field<f64, DenseGrid>; 2],
    skeletons: [Skeleton; 2],
    step: usize,
    mass0: f64,
}

pub fn build(
    tr: &Tracer,
    backend: &Backend,
    mode: FunctionalMode,
    s: &mut Setup,
) -> Box<dyn Program> {
    let t = Instant::now();
    let st = Stencil::d3q19();
    let grid = tr.span(Layer::Domain, "DenseGrid::new", || {
        DenseGrid::new(backend, Dim3::cube(DIM), &[&st], StorageMode::Real).expect("LBM grid")
    });
    s.grid_ms += ms(t);

    let t = Instant::now();
    let (layout, _) = tr.span(Layer::Core, "recommend_layout", || {
        recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 19,
                stencil: true,
                live_halo: grid.num_partitions() > 1,
            },
        )
    });
    let field = |name: &str| {
        tr.span(Layer::Domain, "Field::new", || {
            Field::new(&grid, name, 19, 0.0, layout).expect("LBM field")
        })
    };
    let f = [field("f0"), field("f1")];
    s.field_ms += ms(t);

    let t = Instant::now();
    let params = LbmParams::default();
    let (even, odd) = tr.span(Layer::Apps, "stream_collide", || {
        (
            stream_collide(&grid, &f[0], &f[1], params),
            stream_collide(&grid, &f[1], &f[0], params),
        )
    });
    s.container_ms += ms(t);

    let t = Instant::now();
    let options = SkeletonOptions {
        functional_mode: mode,
        ..Default::default()
    };
    let compile = |name: &str, c| {
        tr.span(Layer::Core, "Skeleton::sequence", || {
            Skeleton::sequence(backend, name, vec![c], options)
        })
    };
    let skeletons = [compile("lbm-even", even), compile("lbm-odd", odd)];
    s.compile_ms += ms(t);
    add_passes(s, &[&skeletons[0], &skeletons[1]]);
    Box::new(Lbm {
        f,
        skeletons,
        step: 0,
        mass0: 0.0,
    })
}

impl Lbm {
    fn mass(&self, tr: &Tracer) -> (f64, bool) {
        let mut m = 0.0;
        let mut finite = true;
        tr.span(Layer::Domain, "Field::for_each", || {
            self.f[self.step % 2].for_each(|_, _, _, _, v| {
                m += v;
                finite &= v.is_finite();
            })
        });
        (m, finite)
    }
}

impl Program for Lbm {
    fn cells(&self) -> u64 {
        (DIM * DIM * DIM) as u64
    }

    fn iters_per_exec(&self) -> usize {
        1
    }

    fn load(&mut self, tr: &Tracer, input: u64) -> Load {
        let t = Instant::now();
        let init =
            |x, y, z, q: usize| D3Q19_WEIGHTS[q] * (1.0 + 2e-3 * (unit_hash(input, x, y, z) - 0.5));
        tr.span(Layer::Domain, "Field::fill", || {
            self.f[0].fill(init);
            self.f[1].fill(init);
        });
        let fill_ms = ms(t);
        self.step = 0;
        self.mass0 = self.mass(tr).0;
        Load {
            fill_ms,
            ..Load::default()
        }
    }

    fn exec(&mut self, tr: &Tracer) -> ExecReport {
        let sk = &mut self.skeletons[self.step % 2];
        let r = tr.span(Layer::Core, "Skeleton::run", || sk.run());
        self.step += 1;
        r
    }

    fn check(&mut self, tr: &Tracer) -> Result<(), String> {
        let (m, finite) = self.mass(tr);
        if !finite {
            return Err("non-finite population".into());
        }
        let drift = ((m - self.mass0) / self.mass0).abs();
        if drift > MASS_TOL {
            return Err(format!("mass drift {drift:e} > {MASS_TOL:e}"));
        }
        Ok(())
    }

    fn counters(&self) -> CounterSnapshot {
        let mut c = self.skeletons[0].counters_snapshot();
        c.accumulate(&self.skeletons[1].counters_snapshot());
        c
    }

    fn set_mode(&mut self, mode: FunctionalMode) {
        for sk in &mut self.skeletons {
            sk.set_functional_mode(mode);
        }
    }

    fn set_functional(&mut self, on: bool) {
        for sk in &mut self.skeletons {
            sk.set_functional(on);
        }
    }

    fn bits(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for f in &self.f {
            f.for_each(|_, _, _, _, x| v.push(x.to_bits()));
        }
        v
    }

    fn checkpoint(&self, tr: &Tracer) -> Checkpoint {
        // Both parities: the next step reads the field the last one wrote.
        tr.span(Layer::Set, "Checkpoint::capture", || {
            let mut handles = self.skeletons[0].state_handles();
            handles.extend(self.skeletons[1].state_handles());
            Checkpoint::capture(self.step as u64, &handles)
        })
    }

    fn update_halos(&self, tr: &Tracer) {
        tr.span(Layer::Domain, "Field::update_halos", || {
            self.f[self.step % 2].update_halos()
        });
    }

    fn collectives_per_exec(&self) -> usize {
        collectives(&self.skeletons[0])
    }
}
