#include "isa/instruction.hh"

#include "isa/fields.hh"

namespace pipesim::isa
{

SrcRegs
Instruction::srcRegs() const
{
    const OpcodeInfo &info = opcodeInfo(op);
    SrcRegs regs;
    if (info.hasRs1)
        regs.push(rs1);
    if (info.hasRs2)
        regs.push(rs2);
    // PBR reads the condition register unless the branch is
    // unconditional.
    if (op == Opcode::Pbr && cond != Cond::Always)
        regs.push(rs1);
    return regs;
}

bool
Instruction::writesReg(std::uint8_t r) const
{
    const OpcodeInfo &info = opcodeInfo(op);
    return info.hasRd && rd == r;
}

unsigned
Instruction::ldqPops() const
{
    unsigned n = 0;
    for (std::uint8_t r : srcRegs())
        if (r == queueReg)
            ++n;
    return n;
}

bool
Instruction::pushesSdq() const
{
    const OpcodeInfo &info = opcodeInfo(op);
    return info.hasRd && rd == queueReg;
}

} // namespace pipesim::isa
