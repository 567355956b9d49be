//! Dynamic micro-operations.

use serde::{Deserialize, Serialize};

/// Functional class of a micro-operation.
///
/// The class determines which functional unit executes the operation and its
/// nominal execution latency (see [`OpClass::latency`]). The set matches the
/// granularity of the instruction-mix statistics collected by the paper's
/// profiler (integer, multiply/divide, floating point, loads, stores,
/// branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined).
    IntDiv,
    /// Floating-point add/sub/convert.
    FpAdd,
    /// Floating-point multiply (and fused multiply-add).
    FpMul,
    /// Floating-point divide / square root (long latency, unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

/// Number of distinct [`OpClass`] values.
pub const NUM_OP_CLASSES: usize = 9;

/// Number of issue-port pools (see [`OpClass::port_pool`]).
pub const NUM_PORT_POOLS: usize = 5;

impl OpClass {
    /// All classes, in a fixed order matching [`OpClass::index`].
    pub const ALL: [OpClass; NUM_OP_CLASSES] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// Dense index of this class in `[0, NUM_OP_CLASSES)`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Nominal execution latency in cycles.
    ///
    /// These latencies are *model inputs* shared by the profiler (for
    /// critical-path analysis), the analytical model and the simulator —
    /// the same convention as the single-threaded model of Van den Steen et
    /// al., which assumes fixed per-class latencies. Load latency here is the
    /// L1 hit latency; cache misses add on top (simulator) or are modelled
    /// separately (Equation 1 memory components).
    #[inline]
    pub const fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 18,
            OpClass::FpAdd => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 15,
            OpClass::Load => 3,
            OpClass::Store => 1,
            OpClass::Branch => 1,
        }
    }

    /// Whether this class accesses data memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Issue-port pool executing this class. Classes in the same pool share
    /// functional units (e.g. FP adds and multiplies share the FP pipes).
    #[inline]
    pub fn port_pool(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul | OpClass::IntDiv => 1,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => 2,
            OpClass::Load | OpClass::Store => 3,
            OpClass::Branch => 4,
        }
    }

    /// Whether the functional unit is pipelined (can accept a new operation
    /// every cycle). Divides are not.
    #[inline]
    pub fn pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int",
            OpClass::IntMul => "mul",
            OpClass::IntDiv => "div",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// One dynamic micro-operation.
///
/// `src1`/`src2` are register dependence *distances*: `src1 == k` means the
/// operation consumes the result of the `k`-th previous micro-op in the same
/// thread (0 means no dependence). Distances are what a
/// microarchitecture-independent profile records — they translate to
/// instruction-window pressure on any target machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Functional class.
    pub class: OpClass,
    /// First input dependence distance (0 = none).
    pub src1: u16,
    /// Second input dependence distance (0 = none).
    pub src2: u16,
    /// Data address in units of cache lines (valid for loads/stores).
    pub line: u64,
    /// Instruction cache line holding this op.
    pub code_line: u64,
    /// Static branch site identifier (valid for branches).
    pub site: u32,
    /// Branch outcome (valid for branches).
    pub taken: bool,
}

impl MicroOp {
    /// Creates a non-memory, non-branch op of the given class.
    pub fn compute(class: OpClass, src1: u16, src2: u16) -> Self {
        MicroOp {
            class,
            src1,
            src2,
            line: 0,
            code_line: 0,
            site: 0,
            taken: false,
        }
    }

    /// Creates a load of `line`.
    pub fn load(line: u64, src1: u16) -> Self {
        MicroOp {
            class: OpClass::Load,
            src1,
            src2: 0,
            line,
            code_line: 0,
            site: 0,
            taken: false,
        }
    }

    /// Creates a store to `line`.
    pub fn store(line: u64, src1: u16) -> Self {
        MicroOp {
            class: OpClass::Store,
            src1,
            src2: 0,
            line,
            code_line: 0,
            site: 0,
            taken: false,
        }
    }

    /// Creates a conditional branch at static `site` with the given outcome.
    pub fn branch(site: u32, taken: bool, src1: u16) -> Self {
        MicroOp {
            class: OpClass::Branch,
            src1,
            src2: 0,
            line: 0,
            code_line: 0,
            site,
            taken,
        }
    }

    /// Whether the op reads or writes data memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.class.is_mem()
    }

    /// Whether the op writes data memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; NUM_OP_CLASSES];
        for c in OpClass::ALL {
            assert!(!seen[c.index()], "duplicate index {}", c.index());
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn latencies_positive() {
        for c in OpClass::ALL {
            assert!(c.latency() >= 1);
        }
    }

    #[test]
    fn divides_are_unpipelined() {
        assert!(!OpClass::IntDiv.pipelined());
        assert!(!OpClass::FpDiv.pipelined());
        assert!(OpClass::IntAlu.pipelined());
        assert!(OpClass::Load.pipelined());
    }

    #[test]
    fn mem_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
        assert!(MicroOp::load(3, 0).is_mem());
        assert!(MicroOp::store(3, 0).is_store());
        assert!(!MicroOp::load(3, 0).is_store());
    }

    #[test]
    fn constructors_set_fields() {
        let b = MicroOp::branch(7, true, 2);
        assert_eq!(b.class, OpClass::Branch);
        assert_eq!(b.site, 7);
        assert!(b.taken);
        assert_eq!(b.src1, 2);

        let l = MicroOp::load(42, 1);
        assert_eq!(l.line, 42);
        assert_eq!(l.class, OpClass::Load);
    }

    #[test]
    fn port_pools_are_dense() {
        let mut seen = [false; NUM_PORT_POOLS];
        for c in OpClass::ALL {
            seen[c.port_pool()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(OpClass::FpAdd.port_pool(), OpClass::FpMul.port_pool());
        assert_eq!(OpClass::Load.port_pool(), OpClass::Store.port_pool());
        assert_ne!(OpClass::IntAlu.port_pool(), OpClass::Load.port_pool());
    }

    #[test]
    fn display_is_nonempty() {
        for c in OpClass::ALL {
            assert!(!format!("{c}").is_empty());
        }
    }
}
