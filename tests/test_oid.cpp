#include "metadb/oid.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>

#include "common/error.hpp"

namespace damocles::metadb {

/// Names each sweep case by its display form; without this the test name
/// would be a byte dump of the Oid's strings.
void PrintTo(const Oid& oid, std::ostream* os) { *os << FormatOid(oid); }

namespace {

TEST(Oid, FormatDisplayStyle) {
  EXPECT_EQ(FormatOid(Oid{"cpu", "schematic", 4}), "<cpu.schematic.4>");
}

TEST(Oid, FormatWireStyle) {
  EXPECT_EQ(FormatOidWire(Oid{"reg", "verilog", 4}), "reg,verilog,4");
}

TEST(Oid, ParseWireRoundTrip) {
  const Oid original{"alu", "GDSII", 6};
  EXPECT_EQ(ParseOidWire(FormatOidWire(original)), original);
}

TEST(Oid, ParseWireAcceptsSpaces) {
  EXPECT_EQ(ParseOidWire(" cpu , hdl , 2 "), (Oid{"cpu", "hdl", 2}));
}

TEST(Oid, ParseWireRejectsWrongArity) {
  EXPECT_THROW(ParseOidWire("cpu,hdl"), WireFormatError);
  EXPECT_THROW(ParseOidWire("a,b,c,d"), WireFormatError);
  EXPECT_THROW(ParseOidWire(""), WireFormatError);
}

TEST(Oid, ParseWireRejectsEmptyFields) {
  EXPECT_THROW(ParseOidWire(",hdl,1"), WireFormatError);
  EXPECT_THROW(ParseOidWire("cpu,,1"), WireFormatError);
}

TEST(Oid, ParseWireRejectsBadVersions) {
  EXPECT_THROW(ParseOidWire("cpu,hdl,zero"), WireFormatError);
  EXPECT_THROW(ParseOidWire("cpu,hdl,0"), WireFormatError);
  EXPECT_THROW(ParseOidWire("cpu,hdl,-3"), WireFormatError);
  EXPECT_THROW(ParseOidWire("cpu,hdl,1x"), WireFormatError);
}

TEST(Oid, EqualityIsFullTriplet) {
  const Oid a{"cpu", "hdl", 1};
  EXPECT_EQ(a, (Oid{"cpu", "hdl", 1}));
  EXPECT_NE(a, (Oid{"cpu", "hdl", 2}));
  EXPECT_NE(a, (Oid{"cpu", "netlist", 1}));
  EXPECT_NE(a, (Oid{"reg", "hdl", 1}));
}

TEST(Oid, OrderingIsBlockViewVersion) {
  EXPECT_LT((Oid{"a", "z", 9}), (Oid{"b", "a", 1}));
  EXPECT_LT((Oid{"a", "a", 1}), (Oid{"a", "b", 1}));
  EXPECT_LT((Oid{"a", "a", 1}), (Oid{"a", "a", 2}));
}

TEST(Oid, HashDistinguishesComponents) {
  std::unordered_set<Oid, OidHash> set;
  set.insert(Oid{"cpu", "hdl", 1});
  set.insert(Oid{"cpu", "hdl", 2});
  set.insert(Oid{"cpu", "netlist", 1});
  set.insert(Oid{"reg", "hdl", 1});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(Oid{"cpu", "hdl", 1}));
  EXPECT_FALSE(set.contains(Oid{"cpu", "hdl", 3}));
}

/// Wire round-trip sweep over representative OIDs.
class OidWireSweep : public ::testing::TestWithParam<Oid> {};

TEST_P(OidWireSweep, RoundTrips) {
  EXPECT_EQ(ParseOidWire(FormatOidWire(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OidWireSweep,
    ::testing::Values(Oid{"cpu", "HDL_model", 1}, Oid{"reg", "verilog", 4},
                      Oid{"alu", "GDSII", 6}, Oid{"top_0_1", "view_9", 123},
                      Oid{"b", "v", 1000000}));

}  // namespace
}  // namespace damocles::metadb
