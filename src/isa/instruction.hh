/**
 * @file
 * The decoded instruction record passed between the fetch unit and
 * the pipeline, plus operand-usage helpers.
 */

#ifndef PIPESIM_ISA_INSTRUCTION_HH
#define PIPESIM_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace pipesim::isa
{

/**
 * The source registers of one instruction (at most three), held
 * inline so asking for them allocates nothing; iterates in the
 * order the values are consumed.
 */
class SrcRegs
{
  public:
    void push(std::uint8_t r) { _regs[_count++] = r; }

    const std::uint8_t *begin() const { return _regs.data(); }
    const std::uint8_t *end() const { return _regs.data() + _count; }

  private:
    std::array<std::uint8_t, 3> _regs{};
    std::uint8_t _count = 0;
};

/**
 * A fully decoded PIPE instruction.
 *
 * All fields are populated by the decoder; unused fields are zero.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0;    //!< destination data register
    std::uint8_t rs1 = 0;   //!< first source data register
    std::uint8_t rs2 = 0;   //!< second source data register
    std::uint8_t br = 0;    //!< branch register (pbr/lbr)
    std::uint8_t count = 0; //!< pbr delay-slot count (0..7)
    Cond cond = Cond::Always;
    std::int32_t imm = 0;   //!< sign-extended 16-bit immediate
    std::uint8_t parcels = 1; //!< encoded size actually occupied

    /** Size of the encoded instruction in bytes. */
    unsigned sizeBytes() const { return parcels * parcelBytes; }

    bool isPbr() const { return op == Opcode::Pbr; }
    bool isLoad() const { return opcodeInfo(op).isLoad; }
    bool isStore() const { return opcodeInfo(op).isStore; }
    bool isHalt() const { return op == Opcode::Halt; }

    /**
     * Data registers read by this instruction, in the order their
     * values are consumed.  Order matters for r7: each appearance
     * pops one Load Data Queue entry.
     */
    SrcRegs srcRegs() const;

    /** @return true if this instruction writes data register @p r. */
    bool writesReg(std::uint8_t r) const;

    /** Number of r7 source operands (LDQ pops at issue). */
    unsigned ldqPops() const;

    /** @return true if the result is pushed to the SDQ (rd == r7). */
    bool pushesSdq() const;

    bool operator==(const Instruction &other) const = default;
};

/** A decoded instruction tagged with its fetch address. */
struct FetchedInst
{
    Addr pc = 0;
    Instruction inst;
};

/**
 * The outcomes of executing one instruction that timing depends on
 * (docs/trace_replay.md): a load/store's effective address and a
 * PBR's resolved direction and target.  The pipeline computes them
 * (or takes them from a trace), the retire probe reports them and a
 * trace records them.
 */
struct ExecOutcome
{
    bool hasMemAddr = false;  //!< load/store; memAddr is valid
    bool memIsStore = false;  //!< the op pushes the SAQ (else LAQ)
    Addr memAddr = 0;         //!< effective address
    bool isPbr = false;       //!< PBR; taken/target are valid
    bool branchTaken = false; //!< resolved direction
    Addr branchTarget = 0;    //!< resolved target (branch register)

    bool operator==(const ExecOutcome &other) const = default;
};

/** One committed instruction: its fetch address and its outcomes. */
struct CommittedInst : ExecOutcome
{
    Addr pc = 0;

    bool operator==(const CommittedInst &other) const = default;
};

} // namespace pipesim::isa

#endif // PIPESIM_ISA_INSTRUCTION_HH
