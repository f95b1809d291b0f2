#include "kit/kit.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace pdc::kit {
namespace {

TEST(Catalog, Year2020HasEveryTableIPart) {
  const Catalog catalog = Catalog::year_2020();
  for (const char* id : {"canakit-pi4-2g", "eth-usb-a", "usb-a-c", "eth-cable",
                         "microsd-16g", "kit-case"}) {
    EXPECT_TRUE(catalog.find(id).has_value()) << id;
  }
}

TEST(Catalog, FindReturnsNulloptForUnknown) {
  EXPECT_FALSE(Catalog::year_2020().find("warp-drive").has_value());
}

TEST(Catalog, AtThrowsForUnknown) {
  EXPECT_THROW((void)Catalog::year_2020().at("warp-drive"), NotFound);
}

TEST(Catalog, AddReplacesExistingPart) {
  Catalog catalog = Catalog::year_2020();
  Part cheaper = catalog.at("eth-cable");
  cheaper.bulk_cost = 0.99;
  catalog.add(cheaper);
  EXPECT_DOUBLE_EQ(catalog.at("eth-cable").bulk_cost, 0.99);
}

TEST(Catalog, RejectsInvalidParts) {
  Catalog catalog;
  EXPECT_THROW(catalog.add(Part{"", "anon", PartKind::Other, 1.0, 1.0}),
               InvalidArgument);
  EXPECT_THROW(catalog.add(Part{"x", "neg", PartKind::Other, -1.0, 1.0}),
               InvalidArgument);
}

TEST(Kit, TableITotalIsExactlyOneHundredDollarsSixtySix) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  EXPECT_NEAR(kit.total_cost_bulk(), 100.66, 1e-9);
}

TEST(Kit, TableILineItemsMatchThePaper) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  ASSERT_EQ(kit.lines().size(), 6u);
  EXPECT_DOUBLE_EQ(kit.lines()[0].part.bulk_cost, 62.99);
  EXPECT_DOUBLE_EQ(kit.lines()[1].part.bulk_cost, 15.95);
  EXPECT_DOUBLE_EQ(kit.lines()[2].part.bulk_cost, 3.99);
  EXPECT_DOUBLE_EQ(kit.lines()[3].part.bulk_cost, 1.55);
  EXPECT_DOUBLE_EQ(kit.lines()[4].part.bulk_cost, 5.41);
  EXPECT_DOUBLE_EQ(kit.lines()[5].part.bulk_cost, 10.77);
}

TEST(Kit, RetailCostExceedsBulkCost) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  EXPECT_GT(kit.total_cost_retail(), kit.total_cost_bulk());
}

TEST(Kit, StandardKitValidatesClean) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  EXPECT_TRUE(kit.validate().empty());
}

TEST(Kit, MissingStorageIsFlagged) {
  const Catalog catalog = Catalog::year_2020();
  Kit kit("incomplete", PiModel::Pi4, SystemImage{});
  kit.add(catalog.at("canakit-pi4-2g"));
  kit.add(catalog.at("eth-cable"));
  kit.add(catalog.at("eth-usb-a"));
  const auto problems = kit.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("microSD"), std::string::npos);
}

TEST(Kit, MissingConnectivityIsFlagged) {
  const Catalog catalog = Catalog::year_2020();
  Kit kit("no-net", PiModel::Pi4, SystemImage{});
  kit.add(catalog.at("canakit-pi4-2g"));
  kit.add(catalog.at("microsd-16g"));
  const auto problems = kit.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("Ethernet"), std::string::npos);
}

TEST(Kit, OverBudgetIsFlagged) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  const auto problems = kit.validate(/*budget=*/50.0);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("budget"), std::string::npos);
}

TEST(Kit, TooOldPiModelIsFlagged) {
  const Catalog catalog = Catalog::year_2020();
  Kit kit("antique", PiModel::Pi2, SystemImage{});
  kit.add(catalog.at("canakit-pi4-2g"));
  kit.add(catalog.at("microsd-16g"));
  kit.add(catalog.at("eth-cable"));
  kit.add(catalog.at("eth-usb-a"));
  const auto problems = kit.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("does not support"), std::string::npos);
}

TEST(Kit, BillOfMaterialsRendersTableI) {
  const Kit kit = Kit::standard_2020(Catalog::year_2020());
  const std::string table = kit.bill_of_materials().render();
  EXPECT_NE(table.find("CanaKit with 2G Raspberry Pi"), std::string::npos);
  EXPECT_NE(table.find("$62.99"), std::string::npos);
  EXPECT_NE(table.find("Total Kit Cost"), std::string::npos);
  EXPECT_NE(table.find("$100.66"), std::string::npos);
}

TEST(Kit, QuantitiesMultiplyCost) {
  const Catalog catalog = Catalog::year_2020();
  Kit kit("bulk", PiModel::Pi4, SystemImage{});
  kit.add(catalog.at("microsd-16g"), 3);
  EXPECT_NEAR(kit.total_cost_bulk(), 3 * 5.41, 1e-9);
  EXPECT_THROW(kit.add(catalog.at("eth-cable"), 0), InvalidArgument);
}

TEST(SystemImage, SupportsPi3BOnward) {
  const SystemImage image;
  EXPECT_FALSE(image.supports(PiModel::Pi1));
  EXPECT_FALSE(image.supports(PiModel::Pi2));
  EXPECT_TRUE(image.supports(PiModel::Pi3B));
  EXPECT_TRUE(image.supports(PiModel::Pi3BPlus));
  EXPECT_TRUE(image.supports(PiModel::Pi4));
  EXPECT_TRUE(image.supports(PiModel::Pi400));
}

TEST(SystemImage, DownloadUrlCarriesVersion) {
  const SystemImage image;
  EXPECT_NE(image.download_url().find("csip-image-3.0.2.zip"),
            std::string::npos);
}

TEST(PiModel, NamesAndMulticore) {
  EXPECT_EQ(to_string(PiModel::Pi3B), "Raspberry Pi 3B");
  EXPECT_FALSE(is_multicore(PiModel::Pi1));
  EXPECT_TRUE(is_multicore(PiModel::Pi4));
}

}  // namespace
}  // namespace pdc::kit
