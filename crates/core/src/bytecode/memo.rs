//! An exact memo of replica runs.
//!
//! A Virtual Component's replicas (its controllers and its head's
//! monitor) run the same law on the same published PV, and their
//! variables stay bit-equal until one of them misses a PV. So most
//! replica runs repeat the VC's previous run exactly. A [`RunMemo`] holds
//! that previous run: its key (the program's identity, the gas limit, the
//! bits of every variable and of each environment input the program
//! reads) and its outcome (the variables it left, the gas it used, its
//! result or trap, and its actuator write). A replica whose key matches
//! adopts the outcome instead of running; any other run overwrites the
//! entry in place.
//!
//! **Why it is exact.** A replica run is a pure function of its key.
//! [`ReplicaInput`] is the whole environment: every sensor port reads the
//! PV, an actuator write is kept as the output and always succeeds,
//! emissions go nowhere, and the battery reads the host's remaining
//! fraction ([`battery_fraction`] of its radio meter), whose bits join the
//! key of a program that reads it. The interpreter's arithmetic is
//! deterministic on equal bits. Extension words are VM state outside the
//! key, so a program with `ext`, or a VM with registered words, always
//! runs.

use evm_netsim::EnergyMeter;

use super::interp::{Vm, VmEnv, VmError, N_VARS};
use super::isa::{Program, ProgramInputs};
use crate::metrics::battery_fraction;

/// The environment inputs of one replica run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaInput<'a> {
    /// The VC's published PV, served on every sensor port.
    pub pv: f64,
    /// The node clock, seconds.
    pub clock_s: f64,
    /// The replica's controller mode code
    /// ([`crate::roles::ControllerMode::as_f64`]).
    pub role: f64,
    /// The host's radio meter. Read only for a program that reads the
    /// battery, which gets the meter's [`battery_fraction`].
    pub meter: &'a EnergyMeter,
}

/// What one replica run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaRun {
    /// The run's result (top of stack at halt) or its trap.
    pub result: Result<f64, VmError>,
    /// The run's last actuator write, if it made one.
    pub output: Option<f64>,
}

/// The [`VmEnv`] a replica runs against.
struct ReplicaEnv<'a> {
    input: ReplicaInput<'a>,
    output: Option<f64>,
}

impl VmEnv for ReplicaEnv<'_> {
    fn read_sensor(&mut self, _port: u8) -> Result<f64, VmError> {
        Ok(self.input.pv)
    }
    fn write_actuator(&mut self, _port: u8, value: f64) -> Result<(), VmError> {
        self.output = Some(value);
        Ok(())
    }
    fn emit(&mut self, _ch: u8, _value: f64) {}
    fn clock_s(&self) -> f64 {
        self.input.clock_s
    }
    fn role_code(&self) -> f64 {
        self.input.role
    }
    fn battery_fraction(&self) -> f64 {
        battery_fraction(self.input.meter)
    }
}

impl ReplicaInput<'_> {
    /// Runs `program` on `vm` against this input.
    pub fn run(self, vm: &mut Vm, program: &Program) -> ReplicaRun {
        let mut env = ReplicaEnv {
            input: self,
            output: None,
        };
        let result = vm.run(program, &mut env);
        ReplicaRun {
            result,
            output: env.output,
        }
    }

    /// The bits of the PV, clock, role and battery fraction, each 0 when
    /// the program does not read it (the meter is read only then).
    fn key(self, inputs: ProgramInputs) -> [u64; 4] {
        let bits = |read: bool, v: f64| if read { v.to_bits() } else { 0 };
        let battery = if inputs.battery {
            battery_fraction(self.meter).to_bits()
        } else {
            0
        };
        [
            bits(inputs.sensor, self.pv),
            bits(inputs.clock, self.clock_s),
            bits(inputs.role, self.role),
            battery,
        ]
    }
}

/// One VC's last memoized replica run. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RunMemo {
    entry: Option<Entry>,
    runs: u64,
    hits: u64,
}

/// A recorded run: its key, then its outcome.
#[derive(Debug, Clone)]
struct Entry {
    /// Keeps the program's instruction list alive, so its identity
    /// cannot be reused by another program.
    program: Program,
    gas_limit: u64,
    /// The bits of the variables before the run.
    vars_in: [u64; N_VARS],
    /// [`ReplicaInput::key`].
    env: [u64; 4],
    vars_out: [f64; N_VARS],
    gas_used: u64,
    run: ReplicaRun,
}

impl Entry {
    fn matches(&self, vm: &Vm, program: &Program, env: [u64; 4]) -> bool {
        self.env == env
            && self.gas_limit == vm.gas_limit()
            && self.program.same_code(program)
            && vm
                .vars()
                .iter()
                .zip(&self.vars_in)
                .all(|(v, &bits)| v.to_bits() == bits)
    }
}

impl RunMemo {
    /// Runs `program` on `vm` against `input`, or adopts the recorded run
    /// if it had the same key: the variables and gas used are then set to
    /// the recorded ones, and the recorded result and output come back.
    /// Either way the outcome is bit for bit that of running. A run that
    /// does not match overwrites the record in place; it clones
    /// `program` (a reference count) only when the record held another
    /// program.
    ///
    /// `inputs` must be `program.inputs()`; a caller computes it once per
    /// program.
    pub fn run(
        &mut self,
        vm: &mut Vm,
        program: &Program,
        inputs: ProgramInputs,
        input: ReplicaInput,
    ) -> ReplicaRun {
        debug_assert_eq!(inputs, program.inputs(), "inputs of another program");
        self.runs += 1;
        if inputs.ext || vm.has_extensions() {
            return input.run(vm, program);
        }
        let env = input.key(inputs);
        if let Some(e) = &self.entry {
            if e.matches(vm, program, env) {
                self.hits += 1;
                vm.adopt(&e.vars_out, e.gas_used);
                return e.run;
            }
        }
        let vars_in = vm.vars().map(f64::to_bits);
        let run = input.run(vm, program);
        let program = match self.entry.take() {
            Some(e) if e.program.same_code(program) => e.program,
            _ => program.clone(),
        };
        self.entry = Some(Entry {
            program,
            gas_limit: vm.gas_limit(),
            vars_in,
            env,
            vars_out: *vm.vars(),
            gas_used: vm.gas_used(),
            run,
        });
        run
    }

    /// Runs made through this memo.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs that adopted the recorded run instead of running.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::interp::random::random_ops;
    use crate::bytecode::{compile_control_law, control_law_gas_budget, ControlLawSpec, Op};
    use evm_netsim::{RadioPowerModel, RadioState};
    use evm_sim::{SimDuration, SimRng};
    use std::sync::LazyLock;

    /// A host that has spent nothing.
    static FULL: LazyLock<EnergyMeter> =
        LazyLock::new(|| EnergyMeter::new(RadioPowerModel::cc2420()));

    /// A host that has transmitted for `hours`.
    fn drained(hours: u64) -> EnergyMeter {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        m.add(RadioState::Tx, SimDuration::from_secs(hours * 3600));
        m
    }

    fn input(pv: f64) -> ReplicaInput<'static> {
        ReplicaInput {
            pv,
            clock_s: 1.5,
            role: 1.0,
            meter: &FULL,
        }
    }

    fn same_bits(a: &ReplicaRun, b: &ReplicaRun) -> bool {
        let result = match (a.result, b.result) {
            (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        };
        result && a.output.map(f64::to_bits) == b.output.map(f64::to_bits)
    }

    fn vars_bits(vm: &Vm) -> [u64; N_VARS] {
        vm.vars().map(f64::to_bits)
    }

    /// Runs `program` on a memoized VM and on a fresh copy of it, and
    /// returns whether the memo hit; panics unless both agree bit for bit.
    fn run_both(memo: &mut RunMemo, vm: &mut Vm, program: &Program, input: ReplicaInput) -> bool {
        let mut fresh = vm.clone();
        let expect = input.run(&mut fresh, program);
        let hits = memo.hits();
        let got = memo.run(vm, program, program.inputs(), input);
        assert!(same_bits(&got, &expect), "{got:?} vs {expect:?}");
        assert_eq!(vars_bits(vm), vars_bits(&fresh));
        assert_eq!(vm.gas_used(), fresh.gas_used());
        memo.hits() > hits
    }

    /// Random programs from the interpreter's totality generator, random
    /// variables and PVs: a second replica in the same state always hits
    /// and reproduces a fresh run bit for bit, trap or not.
    #[test]
    fn a_hit_reproduces_a_fresh_run_bit_for_bit() {
        let mut rng = SimRng::seed_from(0xF024);
        let mut hits = 0;
        for _ in 0..512 {
            let program = Program::new(random_ops(&mut rng, 64));
            let mut vars = [0.0; N_VARS];
            for v in &mut vars {
                *v = match rng.index(8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    _ => rng.range(-1e3, 1e3),
                };
            }
            let pv = rng.range(-100.0, 100.0);
            let mut first = Vm::new(256);
            first.restore_vars(vars);
            let mut second = first.clone();
            let mut memo = RunMemo::default();
            let input = input(pv);
            let first_hit = run_both(&mut memo, &mut first, &program, input);
            assert!(!first_hit, "an empty memo cannot hit");
            if !program.inputs().ext {
                assert!(run_both(&mut memo, &mut second, &program, input));
                hits += 1;
            }
        }
        assert!(hits > 150, "only {hits} programs hit");
    }

    #[test]
    fn a_different_key_misses() {
        let law = compile_control_law(&ControlLawSpec::from_loop(&evm_plant::standard_loops()[0]));
        let gas = control_law_gas_budget(&law);
        let mut memo = RunMemo::default();
        let mut a = Vm::new(gas);
        assert!(!run_both(&mut memo, &mut a, &law, input(30.0)));
        let mut b = Vm::new(gas);
        assert!(run_both(&mut memo, &mut b, &law, input(30.0)));
        // The run moved the variables on: a replica that ran is not in
        // the state the record was taken in.
        assert!(!run_both(&mut memo, &mut a, &law, input(30.0)));
        assert!(run_both(&mut memo, &mut b, &law, input(30.0)));

        // One variable one ULP off.
        let mut c = a.clone();
        let mut vars = c.snapshot_vars();
        vars[1] = f64::from_bits(vars[1].to_bits() + 1);
        c.restore_vars(vars);
        let mut d = a.clone();
        assert!(!run_both(&mut memo, &mut d, &law, input(30.0)));
        assert!(!run_both(&mut memo, &mut c, &law, input(30.0)));

        // The PV one ULP off.
        let mut e = a.clone();
        let mut f = a.clone();
        let pv = 30.0f64;
        assert!(!run_both(&mut memo, &mut e, &law, input(pv)));
        assert!(!run_both(
            &mut memo,
            &mut f,
            &law,
            input(f64::from_bits(pv.to_bits() + 1))
        ));

        // The clock and the role are keyed only for a program that reads
        // them.
        let (mut g, mut h) = (a.clone(), a.clone());
        assert!(!run_both(&mut memo, &mut g, &law, input(pv + 1.0)));
        let other = ReplicaInput {
            clock_s: 99.0,
            role: 2.0,
            ..input(pv + 1.0)
        };
        assert!(
            run_both(&mut memo, &mut h, &law, other),
            "the law reads neither the clock nor the role"
        );
        for (reader, op) in [("clock", Op::ReadClock), ("role", Op::ReadRole)] {
            let p = Program::new(vec![op, Op::Store(0), Op::ReadSensor(0), Op::Halt]);
            let (mut x, mut y, mut z) = (Vm::new(16), Vm::new(16), Vm::new(16));
            assert!(!run_both(&mut memo, &mut x, &p, input(pv)));
            assert!(run_both(&mut memo, &mut y, &p, input(pv)), "{reader}");
            let moved = match op {
                Op::ReadClock => ReplicaInput {
                    clock_s: 2.5,
                    ..input(pv)
                },
                _ => ReplicaInput {
                    role: 0.0,
                    ..input(pv)
                },
            };
            assert!(!run_both(&mut memo, &mut z, &p, moved), "{reader}");
        }

        // The battery is keyed only for a program that reads it.
        let low = drained(100);
        let (mut g, mut h) = (a.clone(), a.clone());
        assert!(!run_both(&mut memo, &mut g, &law, input(pv + 2.0)));
        let on_low = ReplicaInput {
            meter: &low,
            ..input(pv + 2.0)
        };
        assert!(
            run_both(&mut memo, &mut h, &law, on_low),
            "the law does not read the battery"
        );

        // A program with `ext`, and a VM with a registered word, always
        // run.
        let ext = Program::new(vec![Op::ReadSensor(0), Op::Ext(1), Op::Halt]);
        let mut x = Vm::new(16);
        x.register_extension(1, Program::new(vec![Op::Dup, Op::Mul, Op::Ret]));
        let mut y = x.clone();
        assert!(!run_both(&mut memo, &mut x, &ext, input(pv)));
        assert!(!run_both(&mut memo, &mut y, &ext, input(pv)));
        let plain = Program::new(vec![Op::ReadSensor(0), Op::Halt]);
        let mut y = x.clone();
        assert!(!run_both(&mut memo, &mut x, &plain, input(pv)));
        assert!(!run_both(&mut memo, &mut y, &plain, input(pv)));

        // A different program on equal variables, even one with equal
        // instructions.
        let twin = Program::new(law.ops().to_vec());
        let (mut x, mut y) = (Vm::new(gas), Vm::new(gas));
        assert!(!run_both(&mut memo, &mut x, &law, input(pv)));
        assert!(!run_both(&mut memo, &mut y, &twin, input(pv)));
        // And a different gas limit.
        let (mut x, mut y) = (Vm::new(gas), Vm::new(gas + 1));
        assert!(!run_both(&mut memo, &mut x, &law, input(pv)));
        assert!(!run_both(&mut memo, &mut y, &law, input(pv)));
    }

    #[test]
    fn a_replica_reads_its_hosts_battery() {
        let reader = Program::new(vec![Op::ReadBattery, Op::Halt]);
        let low = drained(100);
        let run = |meter| {
            let input = ReplicaInput {
                meter,
                ..input(1.0)
            };
            input.run(&mut Vm::new(16), &reader).result.expect("runs")
        };
        assert_eq!(run(&FULL), 1.0);
        let read = run(&low);
        assert!(read < 1.0, "a drained host reads {read}");
        assert_eq!(read.to_bits(), battery_fraction(&low).to_bits());
    }

    #[test]
    fn replicas_on_different_batteries_do_not_share_a_run() {
        let reader = Program::new(vec![
            Op::ReadBattery,
            Op::Store(0),
            Op::ReadSensor(0),
            Op::Halt,
        ]);
        let (low, twin, lower) = (drained(10), drained(10), drained(20));
        let on = |meter| ReplicaInput {
            meter,
            ..input(30.0)
        };
        let mut memo = RunMemo::default();
        let (mut x, mut y, mut z) = (Vm::new(16), Vm::new(16), Vm::new(16));
        assert!(!run_both(&mut memo, &mut x, &reader, on(&low)));
        assert!(
            run_both(&mut memo, &mut y, &reader, on(&twin)),
            "an equal battery shares the run"
        );
        assert!(!run_both(&mut memo, &mut z, &reader, on(&lower)));
        assert_ne!(x.vars()[0].to_bits(), z.vars()[0].to_bits());
    }

    #[test]
    fn no_standard_law_reads_the_battery() {
        for spec in evm_plant::standard_loops()
            .iter()
            .chain(&evm_plant::vc_host_loops())
        {
            let law = compile_control_law(&ControlLawSpec::from_loop(spec));
            assert!(!law.inputs().battery, "{} reads the battery", spec.name);
        }
    }
}
