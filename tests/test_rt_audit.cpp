/**
 * @file
 * End-to-end tests for the qec-rt-audit static hot-path auditor.
 *
 * Three angles, mirroring docs/static_analysis.md:
 *  - the seeded-violation fixture (tools/rt_audit/fixture) is
 *    flagged, once per denylist class, with readable call chains —
 *    including a multi-hop chain through an intermediate helper and
 *    a chain through a GCC hot/cold-split clone;
 *  - the production library audits clean under the committed
 *    allowlist and root baseline;
 *  - an allowlist entry that matches no edge fails the audit as
 *    stale, so exemptions cannot silently outlive the code they
 *    were written for.
 *
 * Only compiled when QEC_RT_AUDIT is ON (the build provides the
 * auditor binary and fixture objects; tests/CMakeLists.txt injects
 * their paths as compile definitions).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace
{

struct AuditRun
{
    int exitCode = -1;
    std::string output;
};

/** Run the auditor with `args`, capturing stdout+stderr. */
AuditRun
runAudit(const std::string &args)
{
    const std::string cmd = std::string("\"") + QEC_RT_AUDIT_BIN +
                            "\" " + args + " 2>&1";
    AuditRun run;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        return run;
    }
    std::array<char, 4096> buf;
    size_t got;
    while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
        run.output.append(buf.data(), got);
    }
    const int status = pclose(pipe);
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string
commonArgs()
{
    return std::string("--compile-commands \"") +
           QEC_RT_AUDIT_CCJSON + "\"";
}

TEST(RtAudit, FixtureFlagsEveryDenylistClass)
{
    const AuditRun run = runAudit(
        commonArgs() + " --filter tools/rt_audit/fixture/");
    ASSERT_EQ(run.exitCode, 1) << run.output;

    // One hit per seeded class, attributed to the right root.
    EXPECT_NE(run.output.find(
                  "class=alloc "
                  "root=\"qec_rt_fixture::rtAllocViolation(int)\""),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(
                  "class=lock "
                  "root=\"qec_rt_fixture::rtLockViolation("),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(
                  "class=clock "
                  "root=\"qec_rt_fixture::rtClockViolation()\""),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(
                  "class=throw "
                  "root=\"qec_rt_fixture::rtThrowViolation(int)\""),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(
                  "class=rand "
                  "root=\"qec_rt_fixture::rtRandViolation()\""),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(
                  "class=io "
                  "root=\"qec_rt_fixture::rtIoViolation(int)\""),
              std::string::npos)
        << run.output;

    // Transitive chain: the allocation two frames below the root is
    // reported with the full path, not just the direct relocation.
    EXPECT_NE(
        run.output.find("qec_rt_fixture::rtAllocViaHelper(int) -> "
                        "qec_rt_fixture::allocatingHelper(int) -> "
                        "operator new[]"),
        std::string::npos)
        << run.output;

    // Hot/cold-split clones stay attributed to their parent: the
    // throw lives in rtThrowViolation's .cold section.
    EXPECT_NE(run.output.find("[clone .cold] -> __cxa_throw"),
              std::string::npos)
        << run.output;

    // No false positive on the arithmetic-only control root.
    EXPECT_EQ(run.output.find("root=\"qec_rt_fixture::"
                              "rtCleanControl"),
              std::string::npos)
        << run.output;

    // All eight fixture roots were discovered via the anchor.
    EXPECT_NE(run.output.find("8 roots"), std::string::npos)
        << run.output;
}

TEST(RtAudit, LibraryHotPathsAuditClean)
{
    const std::string src = QEC_RT_AUDIT_SRC;
    const AuditRun run = runAudit(
        commonArgs() + " --filter src/qec/" + " --allow \"" + src +
        "/tools/rt_audit/allow.txt\"" + " --baseline \"" + src +
        "/tools/rt_audit/baseline.txt\"" +
        " --require-roots 27 --unknown error");
    EXPECT_EQ(run.exitCode, 0) << run.output;
    EXPECT_NE(run.output.find(" 0 violations"), std::string::npos)
        << run.output;
    EXPECT_EQ(run.output.find("STALE"), std::string::npos)
        << run.output;
}

TEST(RtAudit, StaleAllowlistEntryFails)
{
    // Committed allowlist plus one entry that can match nothing.
    const std::string src = QEC_RT_AUDIT_SRC;
    std::ifstream in(src + "/tools/rt_audit/allow.txt");
    ASSERT_TRUE(in.good());
    std::stringstream copy;
    copy << in.rdbuf();
    copy << "_ZN3qec19NoSuchSymbolAnywhereEv  stale test entry\n";

    const std::string tmp =
        testing::TempDir() + "rt_audit_stale_allow.txt";
    {
        std::ofstream out(tmp);
        ASSERT_TRUE(out.good());
        out << copy.str();
    }

    const AuditRun run = runAudit(
        commonArgs() + " --filter src/qec/" + " --allow \"" + tmp +
        "\" --require-roots 27 --unknown error");
    std::remove(tmp.c_str());
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_NE(run.output.find("STALE"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("_ZN3qec19NoSuchSymbolAnywhereEv"),
              std::string::npos)
        << run.output;
}

} // namespace
